//! Online tuning during training: Bayesian optimization of the fusion
//! buffer size (§IV-B, [`OnlineTuning`]), and the cost model's forecast of
//! a parallelism strategy's step time and memory ([`forecast_strategy`]).

use std::time::{Duration, Instant};

use dear_collectives::CostModel;
use dear_fusion::Tuner;
use dear_sim::SimDuration;

use crate::strategy::ParallelismStrategy;

/// A monotonic clock the tuning window reads. Injectable so tests can
/// drive the timer deterministically; real runs use [`MonotonicClock`].
pub trait Clock {
    /// Time elapsed since an arbitrary fixed origin.
    fn now(&self) -> Duration;
}

/// The wall clock: [`Instant`]-based, origin at construction.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// Drives the measure-suggest-rebucket cycle for one worker.
///
/// Rank 0 owns the tuner; other ranks pass `None` and receive each
/// suggestion through the collective broadcast. All ranks must construct
/// the tuner with the same `window` and call [`OnlineTuning::on_step`]
/// in lock-step.
///
/// The window timer starts when a window *opens* (at construction, and
/// again the moment the previous window closes), so a closed window's
/// elapsed time covers exactly its `window` step durations. Time spent in
/// activities that are not training — checkpoint saves, evaluation — must
/// be bracketed with [`OnlineTuning::pause`] / [`OnlineTuning::resume`] so
/// it does not poison the throughput observations the GP regresses on.
#[derive(Debug)]
pub struct OnlineTuning<T, C = MonotonicClock> {
    tuner: Option<T>,
    window: u64,
    steps_in_window: u64,
    /// Clock reading when the current window opened.
    window_opened: Duration,
    /// Paused time accumulated within the current window.
    excluded: Duration,
    /// Clock reading when the outermost open pause began.
    pause_started: Option<Duration>,
    /// Nesting depth of open pauses.
    pause_depth: u32,
    samples_per_step: f64,
    current: f64,
    clock: C,
}

impl<T: Tuner> OnlineTuning<T> {
    /// Creates the driver over the wall clock. `tuner` is `Some` only on
    /// rank 0; `samples_per_step` is the global batch size (for
    /// throughput); `initial` is the starting buffer size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(tuner: Option<T>, window: u64, samples_per_step: f64, initial: f64) -> Self {
        OnlineTuning::with_clock(
            tuner,
            window,
            samples_per_step,
            initial,
            MonotonicClock::default(),
        )
    }
}

impl<T: Tuner, C: Clock> OnlineTuning<T, C> {
    /// [`OnlineTuning::new`] with an explicit clock (tests inject a fake
    /// one to verify the window arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn with_clock(
        tuner: Option<T>,
        window: u64,
        samples_per_step: f64,
        initial: f64,
        clock: C,
    ) -> Self {
        assert!(window > 0, "window must be positive");
        let window_opened = clock.now();
        OnlineTuning {
            tuner,
            window,
            steps_in_window: 0,
            window_opened,
            excluded: Duration::ZERO,
            pause_started: None,
            pause_depth: 0,
            samples_per_step,
            current: initial,
            clock,
        }
    }

    /// The buffer size currently in effect, bytes.
    #[must_use]
    pub fn current_buffer(&self) -> f64 {
        self.current
    }

    /// Records one completed step. When the measurement window closes,
    /// returns `Some(throughput)`: the caller must then obtain the next
    /// buffer size via [`OnlineTuning::next_suggestion`] + broadcast and
    /// re-bucket.
    ///
    /// Throughput is `samples_per_step · window / elapsed`, where elapsed
    /// spans from the window's opening to this call, minus paused time —
    /// i.e. exactly the sum of the window's `window` step durations.
    pub fn on_step(&mut self) -> Option<f64> {
        self.steps_in_window += 1;
        if self.steps_in_window < self.window {
            return None;
        }
        let now = self.clock.now();
        // A still-open pause contributes up to `now`; the remainder is
        // excluded from the next window when it eventually resumes.
        let open_pause = self
            .pause_started
            .map_or(Duration::ZERO, |p| now.saturating_sub(p));
        let elapsed = now
            .saturating_sub(self.window_opened)
            .saturating_sub(self.excluded)
            .saturating_sub(open_pause);
        let throughput =
            self.samples_per_step * self.window as f64 / elapsed.as_secs_f64().max(1e-9);
        // The next window opens now.
        self.steps_in_window = 0;
        self.window_opened = now;
        self.excluded = Duration::ZERO;
        if self.pause_started.is_some() {
            self.pause_started = Some(now);
        }
        Some(throughput)
    }

    /// Excludes subsequent time from the throughput measurement until the
    /// matching [`OnlineTuning::resume`] — wrap checkpoint saves and other
    /// non-training work. Pauses nest.
    pub fn pause(&mut self) {
        self.pause_depth += 1;
        if self.pause_depth == 1 {
            self.pause_started = Some(self.clock.now());
        }
    }

    /// Ends the pause opened by the matching [`OnlineTuning::pause`].
    ///
    /// # Panics
    ///
    /// Panics if there is no open pause.
    pub fn resume(&mut self) {
        assert!(self.pause_depth > 0, "resume without a matching pause");
        self.pause_depth -= 1;
        if self.pause_depth == 0 {
            if let Some(p) = self.pause_started.take() {
                self.excluded += self.clock.now().saturating_sub(p);
            }
        }
    }

    /// Rank 0: records the window's throughput at the current buffer size
    /// and produces the next suggestion. Other ranks: returns the current
    /// value unchanged (they learn the real one via broadcast).
    pub fn next_suggestion(&mut self, throughput: f64) -> f64 {
        if let Some(tuner) = self.tuner.as_mut() {
            tuner.observe(self.current, throughput);
            self.current = tuner.suggest();
        }
        self.current
    }

    /// Adopts the broadcast value (all ranks).
    pub fn adopt(&mut self, value: f64) {
        self.current = value;
    }
}

/// What the cost model expects one [`ParallelismStrategy`] to cost at
/// runtime: the per-step length of the decoupled pipeline's critical path
/// (communication and update), and the per-rank memory it leaves resident.
/// Produced by [`forecast_strategy`]; the `ext_zero_comparison` bench
/// records these next to the measured TCP-runtime numbers so the
/// prediction is confirmed, not just asserted.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyForecast {
    /// The strategy this forecast is for.
    pub strategy: ParallelismStrategy,
    /// Predicted per-step RS → update → AG makespan. Identical for `ddp`
    /// and `zero2` **by construction**: ZeRO on the decoupled
    /// pipeline reuses OP1's reduce-scatter and OP2's all-gather verbatim
    /// and every rank updates only its owned shard either way, so sharding
    /// moves no extra bytes and does no extra arithmetic. The forecast
    /// makes that zero-overhead claim explicit and testable.
    pub step_time: SimDuration,
    /// Predicted resident optimizer-state bytes per rank (f32 vectors):
    /// one `⌈n/world⌉` chunk per state vector under every strategy — the
    /// update only ever touches the owned shard. Group-boundary rounding
    /// at runtime can move this by a few elements per bucket, never by a
    /// factor.
    pub optim_state_bytes: usize,
    /// Predicted peak bytes of parameters parked in the communication engine
    /// between OP1 and OP2: the full model under `ddp`, only the
    /// owned chunk under `zero2` (the rest is rematerialized as zeros at
    /// all-gather time — bit-identical, since the ring only reads the
    /// owned chunk from this rank).
    pub stash_bytes: usize,
}

/// Forecast of one DeAR training step under `strategy` on `world` ranks:
/// OP1 (ring reduce-scatter), the owned-shard optimizer update that
/// depends on it (`update_ns_per_element · ⌈n/world⌉ · (1 + state_vectors)`
/// ns), and OP2 (ring all-gather) gated on the update — one serial chain,
/// so the step is their sum — paired with the closed-form per-rank memory
/// of the strategy. `param_elements` is the flat model size `n`;
/// `state_vectors` how many f32 state vectors the optimizer keeps per
/// parameter (1 for SGD momentum, 2 for Adam); gradients are costed at
/// 4 bytes/element (the f32 wire, where the bit-identity guarantee holds).
///
/// # Panics
///
/// Panics if `world == 0`.
#[must_use]
pub fn forecast_strategy(
    strategy: &ParallelismStrategy,
    model: &CostModel,
    world: usize,
    param_elements: usize,
    state_vectors: usize,
    update_ns_per_element: f64,
) -> StrategyForecast {
    assert!(world > 0, "world must be positive");
    let bytes = (param_elements * 4) as u64;
    let shard_elements = param_elements.div_ceil(world);
    // OP1.UPD: every strategy updates only the owned shard — reading the
    // reduced gradient and touching each state vector once.
    let upd_ns = update_ns_per_element * shard_elements as f64 * (1 + state_vectors) as f64;
    let stash_elements = if strategy.shards_grad_stash() {
        shard_elements
    } else {
        param_elements
    };
    StrategyForecast {
        strategy: *strategy,
        step_time: model.ring_reduce_scatter(bytes, world)
            + SimDuration::from_nanos(upd_ns.round() as u64)
            + model.ring_all_gather(bytes, world),
        optim_state_bytes: shard_elements * state_vectors * 4,
        stash_bytes: stash_elements * 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dear_fusion::{Domain, RandomSearch};
    use std::cell::Cell;
    use std::rc::Rc;

    /// A hand-cranked clock: milliseconds advanced explicitly by the test.
    #[derive(Clone)]
    struct FakeClock(Rc<Cell<u64>>);

    impl FakeClock {
        fn new() -> Self {
            FakeClock(Rc::new(Cell::new(0)))
        }
        fn advance_ms(&self, ms: u64) {
            self.0.set(self.0.get() + ms);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            Duration::from_millis(self.0.get())
        }
    }

    #[test]
    fn window_closes_after_exactly_window_steps() {
        let mut t: OnlineTuning<RandomSearch> = OnlineTuning::new(None, 3, 32.0, 1e6);
        assert!(t.on_step().is_none());
        assert!(t.on_step().is_none());
        let thr = t.on_step().expect("third step closes the window");
        assert!(thr > 0.0);
        // Next window restarts the counter.
        assert!(t.on_step().is_none());
    }

    #[test]
    fn window_measures_sum_of_step_durations() {
        // Regression for the off-by-one: the timer used to start on the
        // first `on_step` call — *after* the window's first step had
        // already run — dividing `window` steps by `window − 1` durations
        // (a 2× inflation at window = 2). Two consecutive windows must
        // each measure exactly the sum of their own step durations.
        let clk = FakeClock::new();
        let mut t: OnlineTuning<RandomSearch, _> =
            OnlineTuning::with_clock(None, 2, 32.0, 1e6, clk.clone());
        // Window 1: steps of 10 ms and 20 ms.
        clk.advance_ms(10);
        assert!(t.on_step().is_none());
        clk.advance_ms(20);
        let thr1 = t.on_step().expect("window 1 closes");
        assert!((thr1 - 32.0 * 2.0 / 0.030).abs() < 1e-6, "thr1 = {thr1}");
        // Window 2 opens at the close of window 1: steps of 30 ms and 40 ms.
        clk.advance_ms(30);
        assert!(t.on_step().is_none());
        clk.advance_ms(40);
        let thr2 = t.on_step().expect("window 2 closes");
        assert!((thr2 - 32.0 * 2.0 / 0.070).abs() < 1e-6, "thr2 = {thr2}");
    }

    #[test]
    fn paused_time_is_excluded_from_the_window() {
        // A 390 ms checkpoint save between two 10 ms steps must not poison
        // the observation: throughput = samples·window / (10 ms + 10 ms).
        let clk = FakeClock::new();
        let mut t: OnlineTuning<RandomSearch, _> =
            OnlineTuning::with_clock(None, 2, 32.0, 1e6, clk.clone());
        clk.advance_ms(10);
        assert!(t.on_step().is_none());
        t.pause();
        clk.advance_ms(390); // checkpoint save
        t.resume();
        clk.advance_ms(10);
        let thr = t.on_step().expect("window closes");
        assert!((thr - 32.0 * 2.0 / 0.020).abs() < 1e-6, "thr = {thr}");
    }

    #[test]
    fn open_pause_spanning_a_window_boundary_is_split() {
        let clk = FakeClock::new();
        let mut t: OnlineTuning<RandomSearch, _> =
            OnlineTuning::with_clock(None, 1, 10.0, 1e6, clk.clone());
        clk.advance_ms(10);
        t.pause();
        clk.advance_ms(100);
        // Window 1 closes mid-pause: only the 10 ms of unpaused time counts.
        let thr1 = t.on_step().expect("window 1 closes");
        assert!((thr1 - 10.0 / 0.010).abs() < 1e-6, "thr1 = {thr1}");
        // The pause continues into window 2 for another 50 ms.
        clk.advance_ms(50);
        t.resume();
        clk.advance_ms(25);
        let thr2 = t.on_step().expect("window 2 closes");
        assert!((thr2 - 10.0 / 0.025).abs() < 1e-6, "thr2 = {thr2}");
    }

    #[test]
    fn nested_pauses_exclude_the_outer_interval() {
        let clk = FakeClock::new();
        let mut t: OnlineTuning<RandomSearch, _> =
            OnlineTuning::with_clock(None, 1, 10.0, 1e6, clk.clone());
        clk.advance_ms(5);
        t.pause();
        clk.advance_ms(20);
        t.pause(); // nested
        clk.advance_ms(20);
        t.resume();
        clk.advance_ms(20);
        t.resume(); // outer pause ends: 60 ms excluded in total
        clk.advance_ms(5);
        let thr = t.on_step().expect("window closes");
        assert!((thr - 10.0 / 0.010).abs() < 1e-6, "thr = {thr}");
    }

    #[test]
    #[should_panic(expected = "resume without a matching pause")]
    fn unbalanced_resume_panics() {
        let mut t: OnlineTuning<RandomSearch> = OnlineTuning::new(None, 2, 1.0, 1.0);
        t.resume();
    }

    #[test]
    fn non_owner_ranks_keep_current_until_adopt() {
        let mut t: OnlineTuning<RandomSearch> = OnlineTuning::new(None, 2, 16.0, 5.0e6);
        assert_eq!(t.current_buffer(), 5.0e6);
        let next = t.next_suggestion(1234.0);
        assert_eq!(next, 5.0e6, "non-owner must not change the value");
        t.adopt(7.0e6);
        assert_eq!(t.current_buffer(), 7.0e6);
    }

    #[test]
    fn owner_rank_advances_through_suggestions() {
        let tuner = RandomSearch::new(Domain::new(1.0e6, 1.0e8), 3);
        let mut t = OnlineTuning::new(Some(tuner), 2, 16.0, 25.0e6);
        let first = t.current_buffer();
        let _ = t.on_step();
        let thr = t.on_step().expect("window closed");
        let next = t.next_suggestion(thr);
        assert!((1.0e6..=1.0e8).contains(&next));
        assert_ne!(next, first, "random search should move off the default");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _: OnlineTuning<RandomSearch> = OnlineTuning::new(None, 0, 1.0, 1.0);
    }

    #[test]
    fn strategy_forecast_predicts_free_sharding_and_the_memory_drop() {
        // The ZeRO-on-DeAR claim, stated by the model: every strategy rides
        // the same RS → UPD → AG critical path (zero time overhead), while
        // the resident memory scales down with the world.
        let world = 8;
        let n = 1_000_000;
        let m = CostModel::ten_gbe();
        let ddp = forecast_strategy(&ParallelismStrategy::Ddp, &m, world, n, 2, 0.5);
        let z2 = forecast_strategy(&ParallelismStrategy::Zero2, &m, world, n, 2, 0.5);
        assert_eq!(ddp.step_time, z2.step_time, "zero2 must cost no step time");
        // And the step is RS + UPD + AG end to end on the critical path.
        let comm =
            m.ring_reduce_scatter((n * 4) as u64, world) + m.ring_all_gather((n * 4) as u64, world);
        let update = SimDuration::from_nanos((0.5 * n.div_ceil(world) as f64 * 3.0) as u64);
        assert_eq!(ddp.step_time, comm + update);
        // Memory: one ⌈n/world⌉ chunk per state vector, whatever the
        // strategy — the update never touches more.
        assert_eq!(ddp.optim_state_bytes, n.div_ceil(world) * 2 * 4);
        assert_eq!(z2.optim_state_bytes, ddp.optim_state_bytes);
        // Stash: only zero2 sheds the parked parameters.
        assert_eq!(ddp.stash_bytes, n * 4);
        assert_eq!(z2.stash_bytes, n.div_ceil(world) * 4);
    }
}
