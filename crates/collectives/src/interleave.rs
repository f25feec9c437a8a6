//! An interleaving checker for the fabric's lock-free hand-offs, in the
//! style of loom: it runs a small concurrent scenario once per schedule,
//! exploring every schedule up to a preemption bound, and reports a race
//! when two conflicting plain accesses are not ordered by happens-before.
//!
//! The code under test is the real code — the in-process fabric's ring
//! ([`crate::shm::SpscRing`], generic over [`RingMem`]: its sequence
//! protocol and the resize drain) and the lease's transitions
//! ([`crate::lease`], generic over [`AtomicCell`]) —
//! run on this module's [`Atomic`] words and [`Plain`] locations instead of
//! `std`'s. Every operation on them is a scheduling point; model threads
//! are OS threads that pass one baton, so exactly one runs at a time and
//! the explored schedule decides which.
//!
//! Values are sequentially consistent (a load sees the last store in the
//! schedule), but ordering is tracked with vector clocks: an `Acquire`
//! load (or read-modify-write) joins the clock its `Release` store
//! published, and a `Relaxed` one joins nothing. So a protocol whose
//! correctness rests on a `Release`/`Acquire` pair fails here when either
//! side is weakened, although every interleaving of it computes the same
//! values — which interleavings under sequential consistency alone cannot
//! show.
//!
//! A thread that polls in a loop calls [`spin`]: it then waits until
//! another thread writes an atomic, and a schedule in which every thread
//! waits is reported as a deadlock.

use std::cell::{RefCell, UnsafeCell};
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

use crate::lease::AtomicCell;
use crate::shm::{RingMem, SlotCell};

/// A vector clock: `0[t]` is how much of thread `t`'s history is known.
#[derive(Debug, Clone, Default)]
struct Clock(Vec<u32>);

impl Clock {
    fn get(&self, t: usize) -> u32 {
        self.0.get(t).copied().unwrap_or(0)
    }

    fn tick(&mut self, t: usize) -> u32 {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] += 1;
        self.0[t]
    }

    fn join(&mut self, other: &Clock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(b);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Runnable,
    /// In [`spin`]: runnable again once another thread writes an atomic.
    Waiting,
    Done,
}

struct AtomicLoc {
    name: String,
    value: u64,
    /// The clock a `Release` store published (extended by the
    /// read-modify-writes of its release sequence).
    sync: Clock,
}

struct PlainLoc {
    name: String,
    /// `(thread, its clock)` of the last write.
    write: Option<(usize, u32)>,
    /// Per thread, its clock at its last read since that write (0: none).
    reads: Vec<u32>,
}

/// One scheduling decision: who may run next, who ran, and what the
/// explorer has tried there.
#[derive(Debug, Clone)]
struct Node {
    options: Vec<usize>,
    /// The thread that was running and could go on (switching away from it
    /// is a preemption); `None` when it finished or waits.
    current: Option<usize>,
    /// Preemptions on the path before this node.
    preempts: usize,
    chosen: usize,
    tried: Vec<usize>,
}

/// The state of one execution, behind [`Shared`]'s lock.
struct Exec {
    clocks: Vec<Clock>,
    status: Vec<Status>,
    /// The thread holding the baton.
    active: usize,
    atomics: Vec<AtomicLoc>,
    plains: Vec<PlainLoc>,
    replay: Vec<usize>,
    path: Vec<Node>,
    preempts: usize,
    /// Operations so far, for the report.
    log: Vec<String>,
    failure: Option<String>,
}

struct Shared {
    exec: Mutex<Exec>,
    turn: Condvar,
}

/// The payload a model thread unwinds with when the execution is aborted.
struct Abort;

/// Operations one execution may take before it is called a livelock.
const MAX_STEPS: usize = 20_000;

thread_local! {
    /// The execution this thread takes part in, and its model thread id
    /// (`None` on the driver, whose accesses are not scheduled).
    static CTX: RefCell<Option<(Arc<Shared>, Option<usize>)>> = const { RefCell::new(None) };
}

fn context() -> (Arc<Shared>, Option<usize>) {
    CTX.with(|c| c.borrow().clone())
        .expect("a model object is used outside an exploration")
}

fn acquires(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn releases(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

impl Exec {
    fn fail(&mut self, why: String) {
        if self.failure.is_none() {
            self.failure = Some(format!(
                "{why}\nschedule ({} ops):\n  {}",
                self.log.len(),
                self.log.join("\n  ")
            ));
        }
    }

    fn aborted(&self) -> bool {
        self.failure.is_some()
    }

    /// Picks the thread to run from the runnable ones: the replayed choice,
    /// else `current` (no preemption), else the lowest.
    fn decide(&mut self, current: Option<usize>) -> Option<usize> {
        let options: Vec<usize> = (0..self.status.len())
            .filter(|&t| self.status[t] == Status::Runnable)
            .collect();
        match options.len() {
            0 => return None,
            1 => return Some(options[0]),
            _ => {}
        }
        let at = self.path.len();
        let chosen = match self.replay.get(at) {
            Some(&t) => t,
            None => current
                .filter(|t| options.contains(t))
                .unwrap_or(options[0]),
        };
        assert!(options.contains(&chosen), "a replayed schedule diverged");
        let node = Node {
            options,
            current,
            preempts: self.preempts,
            chosen,
            tried: vec![chosen],
        };
        if current.is_some_and(|c| c != chosen) {
            self.preempts += 1;
        }
        self.path.push(node);
        Some(chosen)
    }

    /// Hands the baton on after `me` finished or began to wait.
    fn pass_on(&mut self) {
        match self.decide(None) {
            Some(next) => self.active = next,
            None if self.status.contains(&Status::Waiting) => {
                self.fail("deadlock: every thread left waits for a write".to_string());
            }
            None => {} // all done
        }
    }

    fn wake_waiters(&mut self) {
        for s in &mut self.status {
            if *s == Status::Waiting {
                *s = Status::Runnable;
            }
        }
    }

    fn plain(&mut self, id: usize, t: usize, write: bool) {
        let clock = self.clocks[t].clone();
        let loc = &self.plains[id];
        let kind = if write { "write" } else { "read" };
        let mut race = None;
        if let Some((u, c)) = loc.write {
            if u != t && clock.get(u) < c {
                race = Some(format!("write by t{u}"));
            }
        }
        if write {
            for (u, &c) in loc.reads.iter().enumerate() {
                if u != t && c > 0 && clock.get(u) < c {
                    race = Some(format!("read by t{u}"));
                }
            }
        }
        if let Some(other) = race {
            let name = loc.name.clone();
            self.fail(format!(
                "race on {name}: {kind} by t{t} is not ordered after the {other}"
            ));
            return;
        }
        let loc = &mut self.plains[id];
        if write {
            loc.write = Some((t, clock.get(t)));
            loc.reads.clear();
        } else {
            if loc.reads.len() <= t {
                loc.reads.resize(t + 1, 0);
            }
            loc.reads[t] = clock.get(t);
        }
    }
}

impl Shared {
    /// Runs one operation of the calling thread: a scheduling point first,
    /// then `op` with the thread's id (`None` on the driver, unscheduled).
    fn step<R>(
        &self,
        what: impl FnOnce() -> String,
        op: impl FnOnce(&mut Exec, Option<usize>) -> R,
    ) -> R {
        let (_, tid) = context();
        let mut ex = self.exec.lock().unwrap();
        let Some(t) = tid else {
            return op(&mut ex, None);
        };
        if ex.aborted() {
            drop(ex);
            return self.unwind_or(op);
        }
        if ex.log.len() >= MAX_STEPS {
            ex.fail(format!("no end after {MAX_STEPS} operations: livelock"));
            drop(ex);
            return self.unwind_or(op);
        }
        if let Some(next) = ex.decide(Some(t)) {
            if next != t {
                ex.active = next;
                self.turn.notify_all();
                ex = self.wait_turn(ex, t);
                if ex.aborted() {
                    drop(ex);
                    return self.unwind_or(op);
                }
            }
        }
        ex.clocks[t].tick(t);
        ex.log.push(format!("t{t}: {}", what()));
        let out = op(&mut ex, Some(t));
        if ex.aborted() {
            self.turn.notify_all();
            drop(ex);
            panic::resume_unwind(Box::new(Abort));
        }
        out
    }

    /// On an aborted execution: unwind the thread, unless it is unwinding
    /// already (a drop guard's access), then just run `op` unscheduled.
    fn unwind_or<R>(&self, op: impl FnOnce(&mut Exec, Option<usize>) -> R) -> R {
        if std::thread::panicking() {
            return op(&mut self.exec.lock().unwrap(), None);
        }
        panic::resume_unwind(Box::new(Abort));
    }

    fn wait_turn<'a>(
        &self,
        mut ex: std::sync::MutexGuard<'a, Exec>,
        t: usize,
    ) -> std::sync::MutexGuard<'a, Exec> {
        while ex.active != t && !ex.aborted() {
            ex = self.turn.wait(ex).unwrap();
        }
        ex
    }

    /// The calling model thread polls: it waits for another thread's write.
    fn spin(&self) {
        let (_, tid) = context();
        let Some(t) = tid else { return };
        let mut ex = self.exec.lock().unwrap();
        if ex.aborted() {
            drop(ex);
            return self.unwind_or(|_, _| ());
        }
        ex.log.push(format!("t{t}: spin"));
        ex.status[t] = Status::Waiting;
        ex.pass_on();
        self.turn.notify_all();
        ex = self.wait_turn(ex, t);
        if ex.aborted() {
            drop(ex);
            self.unwind_or(|_, _| ())
        }
    }
}

/// Polls once: the calling model thread waits until another thread writes
/// an atomic (pass as the `wait` of a spinning loop).
pub(crate) fn spin() {
    context().0.spin();
}

/// A model atomic holding a `V`, implementing [`AtomicCell`].
pub(crate) struct Atomic<V> {
    shared: Arc<Shared>,
    id: usize,
    _value: PhantomData<V>,
}

/// The values a model atomic holds.
pub(crate) trait ModelValue: Copy + Eq + std::fmt::Debug {
    fn to_u64(self) -> u64;
    fn from_u64(v: u64) -> Self;
}

impl ModelValue for u8 {
    fn to_u64(self) -> u64 {
        u64::from(self)
    }
    fn from_u64(v: u64) -> u8 {
        v as u8
    }
}

impl ModelValue for usize {
    fn to_u64(self) -> u64 {
        self as u64
    }
    fn from_u64(v: u64) -> usize {
        v as usize
    }
}

impl<V: ModelValue> Atomic<V> {
    /// A new atomic named `name` (in reports) holding `value`.
    pub(crate) fn new(name: &str, value: V) -> Self {
        let (shared, _) = context();
        let id = {
            let mut ex = shared.exec.lock().unwrap();
            let id = ex.atomics.len();
            ex.atomics.push(AtomicLoc {
                name: format!("{name}#{id}"),
                value: value.to_u64(),
                sync: Clock::default(),
            });
            id
        };
        Atomic {
            shared,
            id,
            _value: PhantomData,
        }
    }

    fn name(&self) -> String {
        self.shared.exec.lock().unwrap().atomics[self.id]
            .name
            .clone()
    }
}

impl<V: ModelValue> AtomicCell for Atomic<V> {
    type Value = V;

    fn load(&self, order: Ordering) -> V {
        let name = self.name();
        let id = self.id;
        self.shared.step(
            || format!("load {name} {order:?}"),
            |ex, t| {
                let loc = &ex.atomics[id];
                let value = loc.value;
                if let Some(t) = t.filter(|_| acquires(order)) {
                    let sync = loc.sync.clone();
                    ex.clocks[t].join(&sync);
                }
                V::from_u64(value)
            },
        )
    }

    fn store(&self, value: V, order: Ordering) {
        let name = self.name();
        let id = self.id;
        self.shared.step(
            || format!("store {name} = {value:?} {order:?}"),
            |ex, t| {
                let sync = match t {
                    Some(t) if releases(order) => ex.clocks[t].clone(),
                    _ => Clock::default(),
                };
                let loc = &mut ex.atomics[id];
                loc.value = value.to_u64();
                loc.sync = sync;
                ex.wake_waiters();
            },
        );
    }

    fn compare_exchange(
        &self,
        current: V,
        new: V,
        success: Ordering,
        failure: Ordering,
    ) -> Result<V, V> {
        let name = self.name();
        let id = self.id;
        self.shared.step(
            || format!("cas {name} {current:?} -> {new:?} {success:?}/{failure:?}"),
            |ex, t| {
                let found = ex.atomics[id].value;
                let swapped = found == current.to_u64();
                let order = if swapped { success } else { failure };
                if let Some(t) = t {
                    if acquires(order) {
                        let sync = ex.atomics[id].sync.clone();
                        ex.clocks[t].join(&sync);
                    }
                    if swapped && releases(order) {
                        let clock = ex.clocks[t].clone();
                        ex.atomics[id].sync.join(&clock);
                    }
                }
                if swapped {
                    ex.atomics[id].value = new.to_u64();
                    ex.wake_waiters();
                    Ok(current)
                } else {
                    Err(V::from_u64(found))
                }
            },
        )
    }
}

/// A model location accessed with plain (non-atomic) reads and writes: the
/// accesses a protocol must order.
pub(crate) struct Plain {
    shared: Arc<Shared>,
    id: usize,
}

impl Plain {
    /// A new location named `name` (in reports).
    pub(crate) fn new(name: &str) -> Self {
        let (shared, _) = context();
        let id = {
            let mut ex = shared.exec.lock().unwrap();
            let id = ex.plains.len();
            ex.plains.push(PlainLoc {
                name: format!("{name}#{id}"),
                write: None,
                reads: Vec::new(),
            });
            id
        };
        Plain { shared, id }
    }

    fn access(&self, write: bool) {
        let id = self.id;
        let name = self.shared.exec.lock().unwrap().plains[id].name.clone();
        let kind = if write { "write" } else { "read" };
        self.shared.step(
            || format!("{kind} {name}"),
            |ex, t| {
                if let Some(t) = t {
                    ex.plain(id, t, write);
                }
            },
        );
    }

    /// A plain read.
    pub(crate) fn read(&self) {
        self.access(false);
    }

    /// A plain write.
    pub(crate) fn write(&self) {
        self.access(true);
    }
}

/// A ring slot's payload cell whose accesses are [`Plain`] ones.
pub(crate) struct ModelSlot<T> {
    value: UnsafeCell<Option<T>>,
    access: Plain,
}

impl<T> SlotCell<T> for ModelSlot<T> {
    fn empty() -> Self {
        ModelSlot {
            value: UnsafeCell::new(None),
            access: Plain::new("slot"),
        }
    }

    unsafe fn put(&self, value: T) {
        self.access.write();
        // SAFETY: one model thread runs at a time.
        unsafe { *self.value.get() = Some(value) };
    }

    unsafe fn peek<R>(&self, read: impl FnOnce(&T) -> R) -> R {
        self.access.read();
        // SAFETY: one model thread runs at a time.
        read(unsafe { (*self.value.get()).as_ref() }.expect("a full slot"))
    }

    unsafe fn take(&self) -> T {
        self.access.write();
        // SAFETY: one model thread runs at a time.
        unsafe { (*self.value.get()).take() }.expect("a full slot")
    }
}

/// [`RingMem`] on model atomics and slots.
pub(crate) struct ModelMem;

impl RingMem for ModelMem {
    type Word = Atomic<usize>;
    type Slot<T> = ModelSlot<T>;

    fn word(value: usize) -> Atomic<usize> {
        Atomic::new("word", value)
    }
}

/// One scenario run: the model threads' bodies, and what the driver does
/// once they have all finished (final checks; dropping shared objects).
pub(crate) struct Run {
    pub(crate) threads: Vec<Box<dyn FnOnce() + Send>>,
    pub(crate) finally: Box<dyn FnOnce()>,
}

/// What an exploration saw.
#[derive(Debug)]
pub(crate) struct Explored {
    /// Schedules run.
    pub(crate) schedules: usize,
}

/// Runs `scenario` once per schedule with at most `bound` preemptions, and
/// returns the first failure — a race, a deadlock, a panic — with the
/// schedule that shows it.
pub(crate) fn explore(bound: usize, scenario: impl Fn() -> Run) -> Result<Explored, String> {
    let mut stack: Vec<Node> = Vec::new();
    let mut schedules = 0;
    loop {
        let replay: Vec<usize> = stack.iter().map(|n| n.chosen).collect();
        let path = run_once(replay, &scenario)?;
        schedules += 1;
        // The replayed nodes keep what was tried at them; the rest are new.
        assert!(path.len() >= stack.len(), "a replayed schedule ended early");
        let kept = stack.len();
        stack.extend(path.into_iter().skip(kept));
        // Backtrack to the deepest node with an untried choice in bounds.
        loop {
            let Some(node) = stack.last_mut() else {
                return Ok(Explored { schedules });
            };
            let next = node.options.iter().copied().find(|&t| {
                !node.tried.contains(&t)
                    && (node.current.is_none_or(|c| c == t) || node.preempts < bound)
            });
            if let Some(t) = next {
                node.tried.push(t);
                node.chosen = t;
                break;
            }
            stack.pop();
        }
    }
}

/// One execution following `replay`, then the default choices; returns the
/// decisions taken.
fn run_once(replay: Vec<usize>, scenario: &impl Fn() -> Run) -> Result<Vec<Node>, String> {
    let shared = Arc::new(Shared {
        exec: Mutex::new(Exec {
            clocks: Vec::new(),
            status: Vec::new(),
            active: usize::MAX,
            atomics: Vec::new(),
            plains: Vec::new(),
            replay,
            path: Vec::new(),
            preempts: 0,
            log: Vec::new(),
            failure: None,
        }),
        turn: Condvar::new(),
    });
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&shared), None)));
    let Run { threads, finally } = scenario();
    let n = threads.len();
    {
        let mut ex = shared.exec.lock().unwrap();
        // What the driver set up happens before every thread starts.
        ex.clocks = vec![Clock::default(); n];
        ex.status = vec![Status::Runnable; n];
        ex.pass_on();
    }
    let handles: Vec<_> = threads
        .into_iter()
        .enumerate()
        .map(|(t, body)| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&shared), Some(t))));
                {
                    let ex = shared.exec.lock().unwrap();
                    drop(shared.wait_turn(ex, t));
                }
                let outcome = panic::catch_unwind(AssertUnwindSafe(body));
                let mut ex = shared.exec.lock().unwrap();
                if let Err(payload) = outcome {
                    if !payload.is::<Abort>() {
                        let msg = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_default();
                        ex.fail(format!("t{t} panicked: {msg}"));
                    }
                }
                ex.status[t] = Status::Done;
                if !ex.aborted() {
                    ex.pass_on();
                }
                shared.turn.notify_all();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("a model thread's own failure is caught");
    }
    let (failure, path) = {
        let mut ex = shared.exec.lock().unwrap();
        (ex.failure.take(), std::mem::take(&mut ex.path))
    };
    if failure.is_none() {
        finally();
    } else {
        // The aborted threads unwound through the scenario's locks and
        // left its objects half-way: they are leaked, not dropped.
        std::mem::forget(finally);
    }
    CTX.with(|c| *c.borrow_mut() = None);
    failure.map_or(Ok(path), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use crate::lease::{self, Settled};
    use crate::shm::{SpscRing, Stamped};

    /// Preemptions per schedule in the ring and lease scenarios.
    const BOUND: usize = 3;

    /// A message-passing scenario: t0 writes `data`, then stores `flag`;
    /// t1 spins until it sees `flag`, then reads `data`.
    fn message_passing(store: Ordering, load: Ordering) -> Result<Explored, String> {
        explore(2, || {
            let data = Arc::new(Plain::new("data"));
            let flag = Arc::new(Atomic::<usize>::new("flag", 0));
            let (d, f) = (Arc::clone(&data), Arc::clone(&flag));
            Run {
                threads: vec![
                    Box::new(move || {
                        d.write();
                        f.store(1, store);
                    }),
                    Box::new(move || {
                        while flag.load(load) == 0 {
                            spin();
                        }
                        data.read();
                    }),
                ],
                finally: Box::new(|| {}),
            }
        })
    }

    #[test]
    fn a_release_acquire_hand_off_is_ordered() {
        let seen = message_passing(Ordering::Release, Ordering::Acquire).unwrap();
        assert!(seen.schedules > 1, "{seen:?}");
    }

    #[test]
    fn a_relaxed_store_or_load_is_a_race() {
        for (store, load) in [
            (Ordering::Relaxed, Ordering::Acquire),
            (Ordering::Release, Ordering::Relaxed),
        ] {
            let err = message_passing(store, load).unwrap_err();
            assert!(err.starts_with("race on data"), "{err}");
        }
    }

    #[test]
    fn threads_that_all_wait_are_a_deadlock() {
        let err = explore(1, || {
            let flag = Arc::new(Atomic::<usize>::new("flag", 0));
            let f = Arc::clone(&flag);
            Run {
                threads: vec![
                    Box::new(move || {
                        while f.load(Ordering::Acquire) == 0 {
                            spin();
                        }
                    }),
                    Box::new(move || {
                        while flag.load(Ordering::Acquire) == 0 {
                            spin();
                        }
                    }),
                ],
                finally: Box::new(|| {}),
            }
        })
        .unwrap_err();
        assert!(err.starts_with("deadlock"), "{err}");
    }

    /// Pushes `v` on `ring`, polling while it is full.
    fn push<T>(ring: &SpscRing<T, ModelMem>, mut v: T) {
        while let Err(back) = ring.try_push(v) {
            v = back;
            spin();
        }
    }

    /// Pops from `ring`, polling while it is empty.
    fn pop<T>(ring: &SpscRing<T, ModelMem>) -> T {
        loop {
            if let Some(v) = ring.try_pop() {
                return v;
            }
            spin();
        }
    }

    #[test]
    fn the_shm_ring_hands_slots_over_in_order() {
        // Three messages through two slots: the producer reuses a slot the
        // consumer has just emptied.
        let seen = explore(BOUND, || {
            let ring = Arc::new(SpscRing::<u32, ModelMem>::new(2));
            let got = Arc::new(Mutex::new(Vec::new()));
            let (tx, rx, out) = (Arc::clone(&ring), Arc::clone(&ring), Arc::clone(&got));
            Run {
                threads: vec![
                    Box::new(move || (0..3).for_each(|v| push(&tx, v))),
                    Box::new(move || {
                        let popped: Vec<u32> = (0..3).map(|_| pop(&rx)).collect();
                        *out.lock().unwrap() = popped;
                    }),
                ],
                finally: Box::new(move || {
                    assert_eq!(*got.lock().unwrap(), [0, 1, 2]);
                    drop(ring);
                }),
            }
        })
        .unwrap();
        assert!(seen.schedules > 100, "{seen:?}");
    }

    /// A message of the new generation: dropping it is taking it off the
    /// ring unread, which only the resize drain does.
    struct Fresh;

    impl Drop for Fresh {
        fn drop(&mut self) {
            panic!("the drain took the new generation's first message");
        }
    }

    /// What the drain scenario's ring carries: a stale message, or the
    /// survivor's first one of the new generation.
    fn message(generation: u64) -> Stamped<Option<Fresh>> {
        Stamped {
            generation,
            msg: (generation == 1).then(|| Fresh),
        }
    }

    #[test]
    fn the_resize_drain_stops_at_the_first_new_generation_message() {
        // A survivor past the gate drains its inbound ring of the old
        // generation while the peer, past the gate too, already pushes its
        // first message of the new one — into a slot the drain frees, as
        // the ring is full of stale messages. The drain must take both
        // stale messages and leave the new one, whichever runs first.
        let seen = explore(BOUND, || {
            let ring = Arc::new(SpscRing::<Stamped<Option<Fresh>>, ModelMem>::new(2));
            push(&ring, message(0));
            push(&ring, message(0));
            let (tx, rx) = (Arc::clone(&ring), Arc::clone(&ring));
            Run {
                threads: vec![
                    Box::new(move || push(&tx, message(1))),
                    Box::new(move || rx.drain_stale(1)),
                ],
                finally: Box::new(move || {
                    let kept = ring.try_pop().expect("the new message stays on the ring");
                    assert_eq!(kept.generation, 1, "the drain left a stale message");
                    std::mem::forget(kept);
                    assert!(ring.try_pop().is_none());
                }),
            }
        })
        .unwrap();
        assert!(seen.schedules > 10, "{seen:?}");
    }

    /// A lease as it rides the shm ring: the state word and the lent chunk.
    struct ModelLease {
        state: Arc<Atomic<u8>>,
        chunk: Arc<Plain>,
    }

    impl ModelLease {
        /// As `Lease::read`.
        fn read(&self) -> Option<()> {
            lease::borrow(&*self.state, || self.chunk.read())
        }
    }

    impl Drop for ModelLease {
        /// As `Lease`'s drop.
        fn drop(&mut self) {
            lease::discard(&*self.state);
        }
    }

    /// The lease hop: the sender fills its chunk, publishes a lease on it
    /// through the ring, settles, and writes the chunk again; the receiver
    /// pops the lease, says the detector now finds it wedged if `wedges`,
    /// and reads it (or drops it unread if `discards`). The sender gives up
    /// on the receiver when `give_up` says so. Returns the outcomes seen.
    fn lease_hop(
        wedges: bool,
        discards: bool,
        give_up: fn(&Atomic<usize>) -> bool,
    ) -> Result<BTreeSet<(&'static str, Option<bool>)>, String> {
        let outcomes = Arc::new(Mutex::new(BTreeSet::new()));
        let seen = Arc::clone(&outcomes);
        explore(BOUND, move || {
            let ring = Arc::new(SpscRing::<ModelLease, ModelMem>::new(2));
            let chunk = Arc::new(Plain::new("chunk"));
            let state = Arc::new(Atomic::<u8>::new("lease", lease::PUBLISHED));
            let wedged = Arc::new(Atomic::<usize>::new("wedged", 0));
            let (tx, rx) = (Arc::clone(&ring), Arc::clone(&ring));
            let (w_tx, w_rx) = (Arc::clone(&wedged), Arc::clone(&wedged));
            let settled = Arc::new(Mutex::new(None));
            let read = Arc::new(Mutex::new(None));
            let (s_out, r_out, outcomes) =
                (Arc::clone(&settled), Arc::clone(&read), Arc::clone(&seen));
            Run {
                threads: vec![
                    Box::new(move || {
                        chunk.write();
                        let lease = ModelLease {
                            state: Arc::clone(&state),
                            chunk: Arc::clone(&chunk),
                        };
                        push(&tx, lease);
                        // As `Loan::settle`: a look, then a wait, until decided.
                        let how = loop {
                            if let Some(how) = lease::try_settle(&*state, || give_up(&w_tx)) {
                                break how;
                            }
                            spin();
                        };
                        chunk.write();
                        *s_out.lock().unwrap() = Some(how);
                    }),
                    Box::new(move || {
                        let lease = pop(&rx);
                        if wedges {
                            w_rx.store(1, Ordering::Relaxed);
                        }
                        if !discards {
                            *r_out.lock().unwrap() = Some(lease.read().is_some());
                        }
                    }),
                ],
                finally: Box::new(move || {
                    let how = settled.lock().unwrap().expect("the sender settled");
                    let read = *read.lock().unwrap();
                    let name = match how {
                        Settled::Released => "released",
                        Settled::Discarded => "discarded",
                        Settled::Revoked => "revoked",
                    };
                    // A settle reports what the receiver did.
                    assert_eq!(read == Some(true), how == Settled::Released, "{name}");
                    outcomes.lock().unwrap().insert((name, read));
                    drop(ring);
                }),
            }
        })?;
        let found = outcomes.lock().unwrap().clone();
        Ok(found)
    }

    /// The lease hop with the sender's side as the training thread runs
    /// it: it publishes the lease, then between stretches of other work
    /// (a write to its next group's buffer) looks at the lease once
    /// ([`lease::try_settle`], what `Loan::poll` runs) and writes the chunk
    /// only after a look that found it settled. The receiver reads it, or
    /// is found wedged first if `wedges`. Returns the outcomes seen.
    fn polled_lease_hop(
        wedges: bool,
        give_up: fn(&Atomic<usize>) -> bool,
    ) -> Result<BTreeSet<&'static str>, String> {
        let outcomes = Arc::new(Mutex::new(BTreeSet::new()));
        let seen = Arc::clone(&outcomes);
        explore(BOUND, move || {
            let ring = Arc::new(SpscRing::<ModelLease, ModelMem>::new(2));
            let chunk = Arc::new(Plain::new("chunk"));
            let next = Arc::new(Plain::new("next group"));
            let state = Arc::new(Atomic::<u8>::new("lease", lease::PUBLISHED));
            let wedged = Arc::new(Atomic::<usize>::new("wedged", 0));
            let (tx, rx) = (Arc::clone(&ring), Arc::clone(&ring));
            let (w_tx, w_rx) = (Arc::clone(&wedged), Arc::clone(&wedged));
            let settled = Arc::new(Mutex::new(None));
            let (s_out, outcomes) = (Arc::clone(&settled), Arc::clone(&seen));
            Run {
                threads: vec![
                    Box::new(move || {
                        chunk.write();
                        let lease = ModelLease {
                            state: Arc::clone(&state),
                            chunk: Arc::clone(&chunk),
                        };
                        push(&tx, lease);
                        let how = loop {
                            next.write();
                            if let Some(how) = lease::try_settle(&*state, || give_up(&w_tx)) {
                                break how;
                            }
                            spin();
                        };
                        chunk.write();
                        *s_out.lock().unwrap() = Some(how);
                    }),
                    Box::new(move || {
                        let lease = pop(&rx);
                        if wedges {
                            w_rx.store(1, Ordering::Relaxed);
                        }
                        let _ = lease.read();
                    }),
                ],
                finally: Box::new(move || {
                    let how = settled.lock().unwrap().expect("the sender settled");
                    outcomes.lock().unwrap().insert(match how {
                        Settled::Released => "released",
                        Settled::Discarded => "discarded",
                        Settled::Revoked => "revoked",
                    });
                    drop(ring);
                }),
            }
        })?;
        let found = outcomes.lock().unwrap().clone();
        Ok(found)
    }

    fn never(_: &Atomic<usize>) -> bool {
        false
    }

    fn when_wedged(w: &Atomic<usize>) -> bool {
        w.load(Ordering::Relaxed) == 1
    }

    fn always(_: &Atomic<usize>) -> bool {
        true
    }

    #[test]
    fn a_lease_over_the_ring_is_read_before_the_sender_writes_again() {
        let seen = lease_hop(false, false, never).unwrap();
        assert_eq!(seen, BTreeSet::from([("released", Some(true))]));
    }

    #[test]
    fn a_revoke_racing_the_reader_leaves_no_race() {
        // The detector's verdict can come while the receiver is reading:
        // the revoke then loses to TAKEN and the settle waits.
        let seen = lease_hop(true, false, when_wedged).unwrap();
        assert_eq!(
            seen,
            BTreeSet::from([("released", Some(true)), ("revoked", Some(false))])
        );
    }

    #[test]
    fn an_abandoned_loan_revokes_or_waits_out_the_read() {
        let seen = lease_hop(false, false, always).unwrap();
        assert_eq!(
            seen,
            BTreeSet::from([("released", Some(true)), ("revoked", Some(false))])
        );
    }

    #[test]
    fn a_lease_dropped_unread_settles_discarded() {
        let seen = lease_hop(false, true, never).unwrap();
        assert_eq!(seen, BTreeSet::from([("discarded", None)]));
    }

    #[test]
    fn a_polled_settle_lets_the_sender_write_only_after_the_read() {
        let seen = polled_lease_hop(false, never).unwrap();
        assert_eq!(seen, BTreeSet::from(["released"]));
    }

    #[test]
    fn a_polled_settle_that_gives_up_mid_read_waits_for_the_release() {
        // A look that finds the lease TAKEN reports nothing, revoke or not:
        // the sender goes on with other work and writes the chunk only once
        // a later look finds it released.
        let seen = polled_lease_hop(true, when_wedged).unwrap();
        assert_eq!(seen, BTreeSet::from(["released", "revoked"]));
    }
}
