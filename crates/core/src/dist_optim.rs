//! `DistOptim` — the user-facing distributed optimizer of the paper's
//! Listing 1, driving BackPipe and FeedPipe through the rank's
//! communication engine from the training step's layer hooks.

use dear_collectives::{CollectiveError, Transport, WorldChange};
use dear_fusion::GroupTracker;
use dear_minidnn::{softmax_cross_entropy, ParamStore, Sequential, Tensor};

use crate::comm::{CommEngine, Home, HyperParams, OptimKind, OptimState};
use crate::layout::GroupLayout;
use crate::trace::{self, TaskKind};

/// Which pipelining scheme the runtime uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// DeAR: reduce-scatter during backprop, shard update as it lands,
    /// all-gather of updated parameters during the next feed-forward.
    Dear,
    /// WFBP baseline: per-group all-reduce during backprop; once the last
    /// group is reduced every group is updated, whole, with the same
    /// update rule as DeAR (its state covers every group whole), and the
    /// step waits for it.
    Wfbp,
}

/// The rank's communication engine, over whichever fabric the worker was
/// given.
pub(crate) type Engine = CommEngine<Box<dyn Transport + Send>>;

/// Groups the engine finished while the step was being closed, held until
/// the next forward or `synchronize` puts them in the store: between a
/// DeAR step and either of those the network is not read, whatever the
/// engine has got done.
#[derive(Default)]
struct Parked(Vec<(usize, Vec<f32>, Vec<f32>)>);

impl Home for Parked {
    fn put(&mut self, group: usize, params: Vec<f32>, grads: Vec<f32>) {
        self.0.push((group, params, grads));
    }
}

impl Parked {
    /// Puts every parked group in `store`.
    fn unpark(&mut self, store: &mut ParamStore) {
        for (group, params, grads) in self.0.drain(..) {
            store.put(group, params, grads);
        }
    }
}

/// The distributed optimizer: wraps a network's training step with
/// gradient communication that the step's own layer hooks drive.
///
/// Mirrors the paper's Listing 1: construct once per worker, call
/// [`DistOptim::train_step`] per mini-batch, and [`DistOptim::synchronize`]
/// before evaluating or reading parameters.
///
/// There is one copy of the model (DESIGN.md §4.17): the network's
/// [`ParamStore`], packed so that every fusion group is one segment. A
/// completed group's parameter and gradient buffers are *taken* out of the
/// store and moved into the engine; when its communication is done they are
/// *put* back. Between the two — after a DeAR `train_step`, until the next
/// feed-forward reaches the group or `synchronize` — the network cannot be
/// read: that is a panic, not a stale value.
///
/// **Who moves the data.** The engine has no thread: the training thread
/// makes its progress at every backprop hook (`grad_ready`) and every
/// feed-forward hook (`pre_forward`), and waits on the link only where the
/// step needs a result — a layer's parameters (`FFWAIT`), WFBP's flush and
/// `synchronize`.
///
/// A failure of the fabric never panics a method here: it comes back as a
/// typed error and latches until [`DistOptim::resize_world`].
pub struct DistOptim {
    rank: usize,
    world: usize,
    mode: PipelineMode,
    layout: GroupLayout,
    tracker: GroupTracker,
    engine: Engine,
    parked: Parked,
    /// The configured update rule, re-sent with every hyper-parameter
    /// change.
    kind: OptimKind,
    iter: u64,
    /// Start of the currently-open feed-forward trace segment, if tracing.
    fw_seg: Option<std::time::Instant>,
    /// First collective failure, latched until a successful
    /// [`DistOptim::resize_world`] clears it. While set, the fabric is
    /// broken: steps are refused with this error.
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
    /// Builds the optimizer around `engine` and installs `layout` in it
    /// (the engine holds the layout of no tensors until then). Called by
    /// the cluster runner; see [`crate::run_training`] for the user entry
    /// point.
    pub(crate) fn new(
        mut engine: Engine,
        mode: PipelineMode,
        layout: GroupLayout,
        kind: OptimKind,
        trace_scope: &str,
    ) -> Self {
        // The training loop runs on the constructing thread; name its
        // stream so fw/bw spans pair with this worker's comm stream.
        trace::set_thread_stream(trace_scope, "compute");
        engine
            .reconfigure(layout.clone())
            .expect("the first layout moves no optimizer state");
        DistOptim {
            rank: engine.rank(),
            world: engine.world(),
            mode,
            tracker: GroupTracker::new(layout.plan()),
            layout,
            engine,
            parked: Parked::default(),
            kind,
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

    /// The first collective failure, if the fabric is currently broken.
    /// Cleared by [`DistOptim::resize_world`].
    #[must_use]
    pub fn comm_failed(&self) -> Option<&CollectiveError> {
        self.comm_failed.as_ref()
    }

    /// Latches the first failure of `outcome`. A failed collective
    /// abandoned the in-flight iteration: the buffers the engine held — and
    /// the groups parked for the next forward — went down with the step, so
    /// those groups' segments stay absent from the
    /// store until the caller's rollback (`set_flat_params`) re-creates
    /// them — the caller must discard the step and either resize or tear
    /// down.
    fn latch<R>(&mut self, outcome: Result<R, CollectiveError>) -> Result<R, CollectiveError> {
        if let Err(e) = &outcome {
            self.comm_failed.get_or_insert_with(|| e.clone());
            self.parked.0.clear();
        }
        outcome
    }

    /// `Err` with the latched failure while the fabric is broken.
    fn check(&self) -> Result<(), CollectiveError> {
        self.comm_failed.clone().map_or(Ok(()), Err)
    }

    /// Every control call is collective and made at an iteration boundary;
    /// one made with communication outstanding is a bug in the caller.
    fn assert_synchronized(&self, what: &str) {
        assert!(
            !self.engine.busy() && self.parked.0.is_empty(),
            "{what} requires a synchronized state"
        );
    }

    /// The door for communicating control calls: refused with the latched
    /// error while the fabric is broken; a failure of the call latches.
    fn request<R>(
        &mut self,
        what: &str,
        call: impl FnOnce(&mut Engine) -> Result<R, CollectiveError>,
    ) -> Result<R, CollectiveError> {
        self.assert_synchronized(what);
        self.check()?;
        let outcome = call(&mut self.engine);
        self.latch(outcome)
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
    /// Returns the first collective failure. The error latches: further
    /// calls keep failing until a successful [`DistOptim::resize_world`].
    ///
    /// # Panics
    ///
    /// Panics if label/batch shapes mismatch.
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
        // The step was abandoned; `train_step` reports why.
        let Some(logits) = logits else {
            return f32::NAN;
        };
        let (loss, dloss) = softmax_cross_entropy(&logits, labels);
        // BackPipe: communication launched as gradients become ready. The
        // hook never waits on the link, so this span is compute plus the
        // engine's progress between layers.
        let bp = trace::span(TaskKind::Backprop, || format!("BP[{iter}]"));
        net.backward_with_hook(&dloss, |li, store| self.grad_ready(li, store));
        bp.end();
        self.finish_iteration(net);
        loss
    }

    /// FeedPipe hook: before layer `li` computes, make progress and make
    /// sure the parameters of the previous iteration's update are back in
    /// the store. `false` if they will never be: the step was abandoned.
    fn pre_forward(&mut self, li: usize, store: &mut ParamStore) -> bool {
        self.parked.unpark(store);
        let progress = self.engine.progress(store);
        let _ = self.latch(progress);
        for i in 0..self.layout.gating_groups(li).len() {
            self.wait_for_group(self.layout.gating_groups(li)[i], store);
        }
        self.comm_failed.is_none()
    }

    /// Drives the engine until group `g`'s parameters are back, or the step
    /// is abandoned.
    fn wait_for_group(&mut self, g: usize, store: &mut ParamStore) {
        if store.has_params(g) || self.comm_failed.is_some() {
            return;
        }
        // Close the open feed-forward segment: time spent waiting here is a
        // stall, not compute, and must not cover communication spans.
        let iter = self.iter;
        let wait = self.fw_seg.take().map(|seg| {
            trace::span_starting_at(seg, TaskKind::FeedForward, || format!("FF[{iter}]")).end();
            trace::span(TaskKind::Other, || format!("FFWAIT[g{g}]"))
        });
        let back = self
            .engine
            .progress_until(store, |store: &ParamStore| store.has_params(g));
        let _ = self.latch(back);
        if let Some(w) = wait {
            w.end();
            self.fw_seg = Some(std::time::Instant::now());
        }
    }

    /// BackPipe hook: layer `li` has written its gradients into the store.
    /// Every group this completes is posted — its buffers leave the store
    /// and move into the engine — and the engine makes progress either way.
    fn grad_ready(&mut self, li: usize, store: &mut ParamStore) {
        let mut posted = false;
        for pi in 0..self.layout.num_params(li) {
            let Some(done) = self.tracker.mark_ready(self.layout.item_of(li, pi)) else {
                continue;
            };
            let (grads, params) = (store.take_grads(done), store.take_params(done));
            let outcome = self.engine.post(done, grads, params, store);
            let _ = self.latch(outcome);
            posted = true;
        }
        if !posted {
            let progress = self.engine.progress(store);
            let _ = self.latch(progress);
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
        let flushed = self.engine.flush(&mut self.parked);
        let _ = self.latch(flushed);
        if self.mode == PipelineMode::Wfbp {
            let store = net.store_mut();
            self.parked.unpark(store);
            let drained = self.engine.drain(store);
            let _ = self.latch(drained);
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
    pub fn synchronize(&mut self, net: &mut Sequential) -> Result<(), CollectiveError> {
        self.parked.unpark(net.store_mut());
        let drained = self.engine.drain(net.store_mut());
        let _ = self.latch(drained);
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
        self.request("broadcast", |e| e.broadcast(root, value))
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
        self.request("barrier", Engine::barrier)
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
        self.request("optimizer-byte query", |e| Ok(e.resident_bytes()))
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
        let set = self.engine.set_hyper(HyperParams {
            lr,
            momentum,
            weight_decay,
            kind: self.kind,
        });
        let _ = self.latch(set);
    }

    /// Clones the sharded optimizer state for checkpointing (under WFBP
    /// every rank's shard is the whole model). Must be called at an
    /// iteration boundary after [`DistOptim::synchronize`]. Purely local —
    /// no communication.
    ///
    /// # Errors
    ///
    /// Returns the latched failure while the fabric is broken.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn export_optim_state(&mut self) -> Result<OptimState, CollectiveError> {
        self.request("optimizer-state export", |e| e.export())
    }

    /// Replaces the sharded optimizer state (checkpoint resume). Must be
    /// called at an iteration boundary before the next
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
        let imported = self.engine.import(&state);
        self.latch(imported)
    }

    /// Installs a new fusion buffer size (the BO re-bucketing step). Must
    /// be called collectively at an iteration boundary after
    /// [`DistOptim::synchronize`], with the same value on every rank —
    /// pair with [`DistOptim::broadcast_value`]. The next step re-packs the
    /// network's store to the new groups; parameters carry over. Groups
    /// are sized in bytes of the run's wire dtype, which stays the same.
    /// A failure of the optimizer state's redistribution latches.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn set_fusion_buffer(&mut self, net: &Sequential, buffer_bytes: Option<u64>) {
        self.assert_synchronized("re-bucketing");
        let layout = GroupLayout::from_buffer_wire(net, buffer_bytes, self.layout.wire());
        let installed = self.engine.reconfigure(layout.clone());
        let _ = self.latch(installed);
        self.tracker = GroupTracker::new(layout.plan());
        self.layout = layout;
    }

    /// Resizes the world in place after peer loss (or to admit a late
    /// joiner): re-runs rendezvous through the engine's transport and
    /// adopts the new dense rank and world size. Clears the latched failure
    /// on success, so training can continue on the survivors. Must be
    /// called concurrently by every surviving rank at an iteration
    /// boundary; pair with [`DistOptim::agree_min_step`], a rollback to a
    /// known-good snapshot, and [`DistOptim::rebalance_optim_state`].
    ///
    /// This is the one call that talks to a broken fabric. The groups the
    /// abandoned step held were dropped with it; the rollback's
    /// `set_flat_params` re-creates those segments.
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
        let change = self.engine.resize(survivors.as_deref())?;
        self.rank = change.new_rank;
        self.world = change.new_world;
        self.comm_failed = None;
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
        self.request("step agreement", |e| e.agree_step(step))
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
    /// run, if the fabric was already broken.
    ///
    /// # Panics
    ///
    /// Panics if called with communication outstanding.
    pub fn rebalance_optim_state(&mut self) -> Result<(), CollectiveError> {
        let layout = self.layout.clone();
        self.request("shard rebalance", |e| e.reconfigure(layout))?;
        // The barrier releases all ranks past the rebalance together.
        self.barrier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::HyperParams;
    use crate::strategy::ParallelismStrategy;
    use dear_collectives::{chunk_range, Loan, LocalEndpoint, LocalFabric, Message, Parcel};
    use dear_minidnn::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Counts what its endpoint puts on a link; forwards everything,
    /// `lend_f32` and `recv_parcel` too.
    struct Counted {
        inner: LocalEndpoint,
        sends: Arc<AtomicUsize>,
    }

    impl Transport for Counted {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn world_size(&self) -> usize {
            self.inner.world_size()
        }
        fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
            self.sends.fetch_add(1, Ordering::SeqCst);
            self.inner.send(to, msg)
        }
        unsafe fn lend_f32(&self, to: usize, src: &[f32]) -> Result<Option<Loan>, CollectiveError> {
            self.sends.fetch_add(1, Ordering::SeqCst);
            // SAFETY: the caller's contract, passed on unchanged.
            unsafe { self.inner.lend_f32(to, src) }
        }
        fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
            self.inner.recv(from)
        }
        fn recv_parcel(&self, from: usize, wait: bool) -> Result<Option<Parcel>, CollectiveError> {
            self.inner.recv_parcel(from, wait)
        }
        fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
            self.inner.set_recv_timeout(timeout)
        }
        fn reconfigure(
            &mut self,
            survivors: Option<&[usize]>,
        ) -> Result<WorldChange, CollectiveError> {
            self.inner.reconfigure(survivors)
        }
    }

    fn net() -> Sequential {
        let mut rng = StdRng::seed_from_u64(3);
        Sequential::new()
            .push(Linear::new(4, 3, &mut rng))
            .push(Relu::new())
            .push(Linear::new(3, 2, &mut rng))
    }

    /// Rank `ep.rank()` under DeAR over a four-group network — one group
    /// per tensor — with a counter of the messages it sends.
    fn optim_of(ep: LocalEndpoint, net: &Sequential) -> (DistOptim, GroupLayout, Arc<AtomicUsize>) {
        let layout = GroupLayout::from_buffer(net, None);
        assert_eq!(layout.num_groups(), 4);
        let sends = Arc::new(AtomicUsize::new(0));
        let transport = Counted {
            inner: ep,
            sends: Arc::clone(&sends),
        };
        let hyper = HyperParams {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            kind: OptimKind::Sgd,
        };
        let scope = trace::unique_scope(0);
        let engine = CommEngine::new(
            Box::new(transport) as Box<dyn Transport + Send>,
            hyper,
            ParallelismStrategy::Ddp,
            PipelineMode::Dear,
            &scope,
        );
        let optim = DistOptim::new(
            engine,
            PipelineMode::Dear,
            layout.clone(),
            OptimKind::Sgd,
            &scope,
        );
        (optim, layout, sends)
    }

    fn batch() -> (Tensor, [usize; 2]) {
        let x = Tensor::from_vec(&[2, 4], vec![0.5, -1.0, 0.25, 2.0, 1.0, 0.0, -0.5, 0.75]);
        (x, [0, 1])
    }

    /// Nowhere zero, so a placeholder could not pass for it.
    fn initial(net: &Sequential) -> Vec<f32> {
        (0..net.param_count())
            .map(|i| 0.1 + 0.01 * i as f32)
            .collect()
    }

    /// Plays rank 1 of 2 over its raw endpoint for one hop of rank 0's
    /// ring op on `group`: reads what rank 0 sent — a lent chunk is read,
    /// which releases it — unless `read` is off, then sends chunk
    /// `chunk` of the group, each element `value`.
    fn answer(
        ep: &LocalEndpoint,
        layout: &GroupLayout,
        group: usize,
        chunk: usize,
        value: f32,
        read: bool,
    ) {
        if read {
            if let Some(Parcel::Lent(lease)) = ep.recv_parcel(0, true).unwrap() {
                lease.read(|_| ()).unwrap();
            }
        }
        let len = chunk_range(layout.group_elements(group), 2, chunk).len();
        ep.send(0, vec![value; len].into()).unwrap();
    }

    #[test]
    fn only_delivered_parameters_are_ever_shipped_back() {
        // Rank 1 is played over its raw endpoint. Step 1 reduce-scatters
        // all four groups; the flush's all-gathers of groups 3 and 2 (layer
        // 0, forward order) are answered, group 1's chunk arrives but
        // rank 1 drops rank 0's unread, and group 0's never comes. Step 2 must stop at the first layer whose group was lost:
        // the delivered groups are back in the store, the lost ones are
        // absent — reading them panics — and nothing is shipped, never a
        // placeholder. The resize does not bring a lost group back; the
        // rollback does, and step 3 is the step a fresh rank takes from it.
        let mut eps = LocalFabric::create(2);
        let ep1 = eps.pop().unwrap();
        let mut net = net();
        let (mut optim, layout, sends) = optim_of(eps.pop().unwrap(), &net);
        let (x, labels) = batch();
        let initial = initial(&net);
        net.set_flat_params(&initial);
        let (stepped, step_returned) = std::sync::mpsc::channel();
        let rank1 = std::thread::spawn({
            let layout = layout.clone();
            move || {
                // Reduce-scatters in backward order: rank 1 sends chunk 1.
                for group in 0..4 {
                    answer(&ep1, &layout, group, 1, 0.0, true);
                }
                // All-gathers, newest group first: rank 1 sends chunk 0.
                for group in [3, 2] {
                    answer(&ep1, &layout, group, 0, 1.0, true);
                }
                // Group 1's chunk is dropped unread, once step 1 has
                // returned: rank 0 may lend it during step 1's backward, and
                // a lease discarded while step 1 still polls its loan fails
                // step 1 itself. Rank 1 leaves only once
                // group 0's has come, which rank 0 sends after group 3 is
                // home: were it gone sooner, that send could fail the step
                // before group 2's arrived chunk was landed.
                step_returned.recv().unwrap();
                drop(ep1.recv_parcel(0, true).unwrap());
                answer(&ep1, &layout, 1, 0, 1.0, false);
                drop(ep1.recv_parcel(0, true).unwrap());
            }
        });
        optim.train_step(&mut net, &x, &labels).unwrap();
        stepped.send(()).unwrap();
        assert!((0..4).all(|g| !net.store().has_params(g)), "by move");
        // Step 2's forward drives step 1's communication to the failure.
        assert!(optim.train_step(&mut net, &x, &labels).is_err());
        rank1.join().unwrap();
        assert!(
            sends.load(Ordering::SeqCst) <= 8,
            "the abandoned step ships nothing: step 1 sent one chunk per \
             reduce-scatter and all-gather"
        );
        for (pi, group) in [(0, 2), (1, 3)] {
            let got = net.store().param(0, pi);
            let c0 = chunk_range(layout.group_elements(group), 2, 0);
            assert_eq!(
                got[c0.clone()],
                vec![1.0; c0.len()][..],
                "delivered group {group}"
            );
        }
        let lost = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.flat_params()))
            .expect_err("reading a lost group must panic");
        let message = lost.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("set_flat_params"), "{message}");

        optim.resize_world(Some(vec![0])).unwrap();
        assert!(!net.store().has_params(1), "a resize is not a delivery");
        net.set_flat_params(&initial);
        optim.rebalance_optim_state().unwrap();
        optim.train_step(&mut net, &x, &labels).unwrap();
        optim.synchronize(&mut net).unwrap();

        let mut fresh_net = self::net();
        fresh_net.set_flat_params(&initial);
        let (mut fresh, _, _) = optim_of(LocalFabric::create(1).remove(0), &fresh_net);
        fresh.train_step(&mut fresh_net, &x, &labels).unwrap();
        fresh.synchronize(&mut fresh_net).unwrap();
        assert_eq!(
            net.flat_params(),
            fresh_net.flat_params(),
            "the rollback is what the next step trains from"
        );
    }

    #[test]
    fn a_latched_failure_shuts_the_door_until_the_resize_drains() {
        // Rank 1 is gone before the first step, which fails. Every control
        // call is then refused with the latched error — nothing sent,
        // nothing received — and the resize, the one call that talks to a
        // broken fabric, succeeds and opens the door again.
        let mut eps = LocalFabric::create(2);
        drop(eps.pop());
        let mut net = net();
        let (mut optim, _, sends) = optim_of(eps.pop().unwrap(), &net);
        let (x, labels) = batch();
        let latched = optim.train_step(&mut net, &x, &labels).unwrap_err();
        assert_eq!(latched, CollectiveError::Disconnected { peer: 1 });
        let shipped = sends.load(Ordering::SeqCst);
        assert_eq!(optim.synchronize(&mut net), Err(latched.clone()));
        assert_eq!(
            optim.train_step(&mut net, &x, &labels),
            Err(latched.clone())
        );
        assert_eq!(optim.export_optim_state(), Err(latched.clone()));
        assert_eq!(optim.optim_state_bytes(), Err(latched.clone()));
        assert_eq!(optim.barrier(), Err(latched.clone()));
        assert_eq!(optim.agree_min_step(3), Err(latched.clone()));
        assert_eq!(optim.broadcast_value(0, 1.0), Err(latched.clone()));
        assert_eq!(optim.rebalance_optim_state(), Err(latched.clone()));
        assert_eq!(
            sends.load(Ordering::SeqCst),
            shipped,
            "a refused call sends nothing"
        );
        assert_eq!(optim.comm_failed(), Some(&latched), "the first error stays");

        assert_eq!(optim.resize_world(Some(vec![0])).unwrap().new_world, 1);
        assert!(optim.comm_failed().is_none());
        optim.barrier().unwrap();
    }
}
