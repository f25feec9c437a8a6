//! `DistOptim` — the user-facing distributed optimizer of the paper's
//! Listing 1, driving BackPipe and FeedPipe over the comm thread.

use crossbeam_channel::{Receiver, Sender};

use dear_collectives::{CollectiveError, DType, WorldChange};
use dear_fusion::GroupTracker;
use dear_minidnn::{softmax_cross_entropy, Optimizer, ParamStore, Sequential, Tensor};

use crate::comm::{CommJob, CommLayout, CommResult, HyperParams, OptimKind, OptimState};
use crate::layout::GroupLayout;
use crate::trace::{self, TaskKind};

/// Which pipelining scheme the runtime uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// DeAR: reduce-scatter during backprop, shard update comm-side,
    /// all-gather of updated parameters during the next feed-forward.
    Dear,
    /// WFBP baseline: per-group all-reduce during backprop, synchronous
    /// local update before the next iteration.
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
    /// Local optimizer for WFBP mode.
    local_optim: Option<Box<dyn Optimizer>>,
    /// Wire dtype of the data path — re-bucketing sizes groups in wire
    /// bytes, so the fusion search must know what a parameter costs on
    /// the wire.
    wire: DType,
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
    /// Builds the optimizer. Called by the cluster runner; see
    /// [`crate::run_training`] for the user entry point.
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
        local_optim: Option<Box<dyn Optimizer>>,
        trace_scope: &str,
        wire: DType,
    ) -> Self {
        // The training loop runs on the constructing thread; name its
        // stream so fw/bw spans pair with this worker's comm stream.
        trace::set_thread_stream(trace_scope, "compute");
        let tracker = GroupTracker::new(layout.plan());
        DistOptim {
            rank,
            world,
            mode,
            layout,
            tracker,
            jobs,
            results,
            pending: 0,
            kind,
            local_optim,
            wire,
            iter: 0,
            fw_seg: None,
            comm_failed: None,
        }
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

    /// Takes delivery of one `Params` reply: both of the group's buffers
    /// are back in the store. (ZeRO-2 returns another parameter allocation
    /// than it was sent, and no gradient buffer; the store makes one.)
    fn accept_params(
        &mut self,
        store: &mut ParamStore,
        group: usize,
        params: Vec<f32>,
        grads: Vec<f32>,
    ) {
        self.pending -= 1;
        store.put_params(group, params);
        store.put_grads(group, grads);
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
        if let Some(e) = self.comm_failed.clone() {
            return Err(e);
        }
        let loss = self.train_step_inner(net, input, labels);
        match self.comm_failed.clone() {
            Some(e) => Err(e),
            None => Ok(loss),
        }
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
        while !store.has_params(g) && self.comm_failed.is_none() {
            match self.results.recv().expect("comm thread hung up") {
                CommResult::Params {
                    group,
                    params,
                    grads,
                } => self.accept_params(store, group, params, grads),
                // The comm thread abandoned the step; the latched failure
                // ends this wait.
                CommResult::Error(e) => self.comm_fail(e),
                other => panic!("unexpected comm result during FeedPipe: {other:?}"),
            }
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
            let grads = store.take_grads(done);
            let job = match self.mode {
                PipelineMode::Dear => CommJob::RsUpdate {
                    group: done,
                    grads,
                    params: store.take_params(done),
                },
                PipelineMode::Wfbp => CommJob::AllReduce { group: done, grads },
            };
            self.jobs.send(job).expect("comm thread hung up");
        }
    }

    /// Ends the iteration: DeAR flushes the all-gathers (consumed lazily by
    /// the next forward); WFBP synchronously collects the averaged
    /// gradients — back in the store, where the local optimizer reads them
    /// — and steps it.
    fn finish_iteration(&mut self, net: &mut Sequential) {
        assert!(
            self.tracker.all_complete(),
            "not all gradients were produced"
        );
        match self.mode {
            PipelineMode::Dear => {
                self.jobs
                    .send(CommJob::FlushAllGathers)
                    .expect("comm thread hung up");
                self.pending += self.layout.num_groups();
            }
            PipelineMode::Wfbp => {
                for _ in 0..self.layout.num_groups() {
                    match self.results.recv().expect("comm thread hung up") {
                        CommResult::Grads { group, grads } => {
                            net.store_mut().put_grads(group, grads);
                        }
                        CommResult::Error(e) => {
                            // Remaining groups were abandoned comm-side;
                            // skip the update — the step is discarded.
                            self.comm_fail(e);
                            break;
                        }
                        other => panic!("unexpected comm result in WFBP sync: {other:?}"),
                    }
                }
                if self.comm_failed.is_none() {
                    self.local_optim
                        .as_mut()
                        .expect("WFBP mode carries a local optimizer")
                        .step(net);
                }
            }
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
        while self.pending > 0 {
            match self.results.recv().expect("comm thread hung up") {
                CommResult::Params {
                    group,
                    params,
                    grads,
                } => self.accept_params(net.store_mut(), group, params, grads),
                // `comm_fail` zeroes `pending`, ending the wait: the comm
                // thread abandoned the flush, nothing more is coming.
                CommResult::Error(e) => self.comm_fail(e),
                other => panic!("unexpected comm result in synchronize: {other:?}"),
            }
        }
        match self.comm_failed.clone() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Broadcasts `value` from `root` to all ranks (used to agree on a new
    /// BO-suggested buffer size). Must be called at an iteration boundary
    /// after [`DistOptim::synchronize`], collectively by all ranks.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn broadcast_value(&mut self, root: usize, value: f64) -> f64 {
        assert_eq!(self.pending, 0, "broadcast requires a synchronized state");
        self.jobs
            .send(CommJob::Broadcast { root, value })
            .expect("comm thread hung up");
        match self.results.recv().expect("comm thread hung up") {
            CommResult::Broadcast(v) => v,
            CommResult::Error(e) => panic!("broadcast failed: {e}"),
            other => panic!("unexpected comm result in broadcast: {other:?}"),
        }
    }

    /// Synchronizes all ranks. Must be called collectively at an iteration
    /// boundary.
    ///
    /// # Errors
    ///
    /// Returns the collective failure that broke the barrier.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding or the comm thread
    /// has died.
    pub fn barrier(&mut self) -> Result<(), CollectiveError> {
        assert_eq!(self.pending, 0, "barrier requires a synchronized state");
        self.jobs
            .send(CommJob::Barrier)
            .expect("comm thread hung up");
        match self.results.recv().expect("comm thread hung up") {
            CommResult::BarrierDone => Ok(()),
            CommResult::Error(e) => {
                self.comm_fail(e.clone());
                Err(e)
            }
            other => panic!("unexpected comm result in barrier: {other:?}"),
        }
    }

    /// The resident optimizer-state bytes on this rank right now (velocity
    /// plus Adam second moment, dense over the owned shard: ~`1/world` of
    /// the model per vector under every strategy; zero in WFBP mode, whose
    /// comm thread never updates). Purely local — no communication. This
    /// is what the ZeRO memory assertions read.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding or the comm thread
    /// has died.
    #[must_use]
    pub fn optim_state_bytes(&mut self) -> usize {
        assert_eq!(
            self.pending, 0,
            "optimizer-byte query requires a synchronized state"
        );
        self.jobs
            .send(CommJob::QueryOptimBytes)
            .expect("comm thread hung up");
        match self.results.recv().expect("comm thread hung up") {
            CommResult::OptimBytes(bytes) => bytes,
            other => panic!("unexpected comm result in byte query: {other:?}"),
        }
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
        assert_eq!(
            self.pending, 0,
            "hyper change requires a synchronized state"
        );
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.jobs
            .send(CommJob::SetHyper(HyperParams {
                lr,
                momentum,
                weight_decay,
                kind: self.kind,
            }))
            .expect("comm thread hung up");
        if let Some(local) = self.local_optim.as_mut() {
            local.set_hyper(lr, momentum, weight_decay);
        }
    }

    /// Clones the comm thread's sharded optimizer state for checkpointing.
    /// Must be called at an iteration boundary after
    /// [`DistOptim::synchronize`]. Purely local — no communication.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding, or if the comm
    /// thread has died.
    #[must_use]
    pub fn export_optim_state(&mut self) -> OptimState {
        assert_eq!(
            self.pending, 0,
            "optimizer-state export requires a synchronized state"
        );
        self.jobs
            .send(CommJob::ExportOptimState)
            .expect("comm thread hung up");
        match self.results.recv().expect("comm thread hung up") {
            CommResult::OptimState(state) => state,
            CommResult::Error(e) => panic!("optimizer-state export refused: {e}"),
            other => panic!("unexpected comm result in optimizer export: {other:?}"),
        }
    }

    /// Replaces the comm thread's sharded optimizer state (checkpoint
    /// resume). Must be called at an iteration boundary before the next
    /// [`DistOptim::train_step`]. Purely local — no communication.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::SizeMismatch`] if a vector of `state` is
    /// not as long as the model (the second moment may also be empty): a
    /// checkpoint of another model. Nothing was imported; the optimizer
    /// goes on as it was.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding, or if the comm
    /// thread has died.
    pub fn import_optim_state(&mut self, state: OptimState) -> Result<(), CollectiveError> {
        assert_eq!(
            self.pending, 0,
            "optimizer-state import requires a synchronized state"
        );
        let expected = self.layout.total_elements();
        if state.velocity.len() != expected {
            let actual = state.velocity.len();
            return Err(CollectiveError::SizeMismatch { expected, actual });
        }
        if !state.second_moment.is_empty() && state.second_moment.len() != expected {
            let actual = state.second_moment.len();
            return Err(CollectiveError::SizeMismatch { expected, actual });
        }
        self.jobs
            .send(CommJob::ImportOptimState(state))
            .expect("comm thread hung up");
        Ok(())
    }

    /// Installs a new fusion buffer size (the BO re-bucketing step). Must
    /// be called collectively at an iteration boundary after
    /// [`DistOptim::synchronize`], with the same value on every rank —
    /// pair with [`DistOptim::broadcast_value`]. The next step re-packs the
    /// network's store to the new groups; parameters carry over.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn set_fusion_buffer(&mut self, net: &Sequential, buffer_bytes: Option<u64>) {
        assert_eq!(
            self.pending, 0,
            "re-bucketing requires a synchronized state"
        );
        let layout = GroupLayout::from_buffer_wire(net, buffer_bytes, self.wire);
        self.jobs
            .send(CommJob::Reconfigure {
                layout: CommLayout::from(&layout),
            })
            .expect("comm thread hung up");
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
    /// Stale results from the abandoned step (parameters, queued errors)
    /// are drained and discarded together with the group buffers they carry
    /// (the rollback's `set_flat_params` re-creates those segments) — the
    /// FIFO job channel guarantees everything enqueued before the resize
    /// replies first.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::Reconfigure`] if the resize was refused
    /// (mid-step, no quorum) or the rendezvous failed; the failed state is
    /// left latched.
    ///
    /// # Panics
    ///
    /// Panics if the comm thread has died.
    pub fn resize_world(
        &mut self,
        survivors: Option<Vec<usize>>,
    ) -> Result<WorldChange, CollectiveError> {
        self.jobs
            .send(CommJob::ResizeWorld { survivors })
            .expect("comm thread hung up");
        loop {
            match self.results.recv().expect("comm thread hung up") {
                CommResult::Resized(Ok(change)) => {
                    self.rank = change.new_rank;
                    self.world = change.new_world;
                    self.comm_failed = None;
                    self.pending = 0;
                    self.tracker.reset();
                    return Ok(change);
                }
                CommResult::Resized(Err(e)) => return Err(e),
                // Stragglers from the abandoned step — drop them.
                _stale => (),
            }
        }
    }

    /// Min-allreduces `step` so every rank resumes from the same point
    /// after a resize (ranks may have been torn away at different steps).
    /// Must be called collectively, normally right after a successful
    /// [`DistOptim::resize_world`].
    ///
    /// # Errors
    ///
    /// Returns the collective failure if the agreement itself failed.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding or the comm thread
    /// has died.
    pub fn agree_min_step(&mut self, step: u64) -> Result<u64, CollectiveError> {
        assert_eq!(
            self.pending, 0,
            "step agreement requires a synchronized state"
        );
        self.jobs
            .send(CommJob::AgreeStep(step))
            .expect("comm thread hung up");
        match self.results.recv().expect("comm thread hung up") {
            CommResult::Step(s) => Ok(s),
            CommResult::Error(e) => {
                self.comm_fail(e.clone());
                Err(e)
            }
            other => panic!("unexpected comm result in step agreement: {other:?}"),
        }
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
    /// import may repair it.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding or the comm thread
    /// has died.
    pub fn rebalance_optim_state(&mut self) -> Result<(), CollectiveError> {
        assert_eq!(
            self.pending, 0,
            "shard rebalance requires a synchronized state"
        );
        self.jobs
            .send(CommJob::Reconfigure {
                layout: CommLayout::from(&self.layout),
            })
            .expect("comm thread hung up");
        // `Reconfigure` carries no reply of its own; the trailing barrier
        // both confirms its collectives succeeded and releases all ranks
        // past the rebalance together.
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

    /// What the step's `RsUpdate` jobs shipped as `params`, laid out like
    /// `Sequential::flat_params`; the jobs' buffers are returned per group.
    fn shipped(jobs: &Receiver<CommJob>, layout: &GroupLayout) -> (Vec<f32>, Vec<GroupBuffers>) {
        let mut flat = vec![f32::NAN; layout.total_elements()];
        let mut buffers = vec![(Vec::new(), Vec::new()); layout.num_groups()];
        for _ in 0..layout.num_groups() {
            let CommJob::RsUpdate {
                group,
                grads,
                params,
            } = jobs.try_recv().expect("one job per group")
            else {
                panic!("expected an RsUpdate");
            };
            assert_eq!(grads.len(), layout.group_elements(group));
            for &i in layout.items_of_group(group) {
                let it = layout.item(i);
                flat[it.global_offset..it.global_offset + it.len]
                    .copy_from_slice(&params[it.offset_in_group..it.offset_in_group + it.len]);
            }
            buffers[group] = (params, grads);
        }
        assert!(matches!(jobs.try_recv(), Ok(CommJob::FlushAllGathers)));
        (flat, buffers)
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
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new()
            .push(Linear::new(4, 3, &mut rng))
            .push(Relu::new())
            .push(Linear::new(3, 2, &mut rng));
        let layout = GroupLayout::from_buffer(&net, None);
        assert_eq!(layout.num_groups(), 4);
        let (job_tx, job_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let mut optim = DistOptim::new(
            0,
            2,
            PipelineMode::Dear,
            layout.clone(),
            job_tx,
            res_rx,
            OptimKind::Sgd,
            None,
            &trace::unique_scope(0),
            DType::F32,
        );
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
        res_tx
            .send(CommResult::Resized(Ok(WorldChange {
                old_rank: 0,
                old_world: 2,
                new_rank: 0,
                new_world: 1,
                generation: 1,
            })))
            .unwrap();
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
}
