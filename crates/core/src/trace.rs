//! Runtime observability: a low-overhead wall-clock event recorder.
//!
//! DeAR's claim is that OP1 (reduce-scatter) hides behind backprop and OP2
//! (all-gather) behind the next feed-forward. The simulator can *predict*
//! that overlap; this module *measures* it. The training thread, the
//! engine it drives, the checkpoint store and the TCP endpoint all emit
//! spans into
//! one process-wide recorder; at the end of
//! a run the spans are replayed into a [`dear_sim::Timeline`] so the exact
//! same interval arithmetic ([`Timeline::exposed_time`]), no-overlap
//! assertions ([`Timeline::assert_streams_serial`]) and Chrome-trace export
//! used for simulated schedules apply to measured wall-clock data.
//!
//! # Cost model
//!
//! When disabled (the default), every instrumentation point reduces to one
//! relaxed atomic load — no clock reads, no formatting, no allocation. When
//! enabled, a span costs two `Instant::now()` calls, one label allocation
//! and one channel send; events are drained off the hot path only when a
//! timeline or dump is requested.
//!
//! # Stream naming
//!
//! Streams are named `scope/role` — e.g. `s0.r2/compute`, `s0.r2/comm` —
//! where the scope is unique per worker (so concurrent in-process clusters
//! never interleave on one stream) and the role identifies the work: a
//! training thread's own spans land on `compute`, and the spans of the
//! communication engine it drives on `comm` ([`span_on`]). The engine's
//! per-group `OP1.RS` / `OP2.AG` / `AR` spans are the transfers — one
//! split-phase ring op each, from when it is the next to receive until it
//! lands — and every control
//! collective has a span of its own (`BCAST`, `BARRIER`, `RESIZE`,
//! `AGREE-STEP`, `REBALANCE`). Overlap reports measure the `…/comm` streams
//! only.
//!
//! # Usage
//!
//! Set `DEAR_TRACE=/path/prefix` (or pass `--trace` to `dear-launch`) and a
//! real run writes a Perfetto-loadable JSON trace plus a one-line overlap
//! summary per rank.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub use dear_sim::{SimDuration, SimTime, StreamId, TaskKind, Timeline};

/// Environment variable naming the trace output path prefix. This module
/// never reads it itself: the launch layer parses it into a typed config
/// (`NetConfig::from_env` in `dear-net`, its only env reader) and calls
/// [`configure`]. Runtimes then dump `<prefix>.rank<R>.json` at the end of
/// the run.
pub const TRACE_ENV: &str = "DEAR_TRACE";

/// One recorded wall-clock span, with instants as nanoseconds since the
/// recorder's epoch.
#[derive(Debug, Clone)]
struct TraceEvent {
    stream: Arc<str>,
    label: String,
    kind: TaskKind,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    tx: Sender<TraceEvent>,
    /// Behind a lock: a `std` receiver is not `Sync`.
    rx: Mutex<Receiver<TraceEvent>>,
    collected: Mutex<Vec<TraceEvent>>,
    counters: Mutex<BTreeMap<String, f64>>,
    path: Mutex<Option<PathBuf>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(0);

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| {
        let (tx, rx) = channel();
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            tx,
            rx: Mutex::new(rx),
            collected: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            path: Mutex::new(None),
        }
    })
}

impl Tracer {
    fn push(&self, stream: Arc<str>, label: String, kind: TaskKind, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let _ = self.tx.send(TraceEvent {
            stream,
            label,
            kind,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Moves everything queued on the channel into `collected`.
    fn drain(&self) {
        let mut collected = self.collected.lock().unwrap();
        let rx = self.rx.lock().unwrap();
        while let Ok(ev) = rx.try_recv() {
            collected.push(ev);
        }
    }
}

thread_local! {
    /// The stream the calling thread's spans land on.
    static STREAM: RefCell<Arc<str>> = RefCell::new(Arc::from("main/other"));
}

/// Names the calling thread's stream `scope/role` (e.g. `s0.r1/comm`);
/// subsequent [`span`] calls from this thread land on that stream.
pub fn set_thread_stream(scope: &str, role: &str) {
    STREAM.with(|s| *s.borrow_mut() = stream(scope, role));
}

/// Returns a process-unique scope name for one worker, `s<N>.r<rank>`.
/// Uniqueness keeps concurrent in-process clusters (tests, benches) from
/// interleaving spans on a shared stream name.
pub fn unique_scope(rank: usize) -> String {
    let id = NEXT_SCOPE.fetch_add(1, Ordering::Relaxed);
    format!("s{id}.r{rank}")
}

/// Whether the recorder is currently capturing spans.
#[must_use]
pub fn enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

/// Turns the recorder on or off. Off is the default; instrumentation is a
/// single atomic load in that state.
pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::Relaxed);
}

/// Configures the recorder from a typed setting: `Some(prefix)` enables it
/// and remembers `prefix` as the dump path, `None` disables it and clears
/// any previous path. This is the struct-level equivalent of the
/// [`TRACE_ENV`] variable / `dear-launch --trace` flag — the launch layer
/// parses those into `NetConfig` and calls this; no env read happens here.
pub fn configure(path: Option<PathBuf>) {
    let enable = path.is_some();
    *tracer().path.lock().unwrap() = path;
    set_enabled(enable);
}

/// The dump path prefix set via [`configure`], if any.
#[must_use]
pub fn configured_path() -> Option<PathBuf> {
    tracer().path.lock().unwrap().clone()
}

/// An in-flight span; recording happens when it is dropped (or [`Span::end`]
/// is called). Inert when the recorder is disabled.
#[must_use = "a span records its interval when dropped"]
pub struct Span {
    rec: Option<(Arc<str>, String, TaskKind, Instant)>,
}

impl Span {
    /// Ends the span now, recording it.
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((stream, label, kind, start)) = self.rec.take() {
            tracer().push(stream, label, kind, start, Instant::now());
        }
    }
}

/// Opens a span of `kind` on the calling thread's stream. The label closure
/// runs only when the recorder is enabled, so callers may format freely.
pub fn span(kind: TaskKind, label: impl FnOnce() -> String) -> Span {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return Span { rec: None };
    }
    let stream = STREAM.with(|s| s.borrow().clone());
    Span {
        rec: Some((stream, label(), kind, Instant::now())),
    }
}

/// The stream `scope/role`, for [`span_on`].
#[must_use]
pub fn stream(scope: &str, role: &str) -> Arc<str> {
    Arc::from(format!("{scope}/{role}"))
}

/// Like [`span`], but on `stream` instead of the calling thread's: for
/// work a thread does in another role — the training thread driving its
/// rank's communication lands it on that rank's `…/comm` stream.
pub fn span_on(stream: &Arc<str>, kind: TaskKind, label: impl FnOnce() -> String) -> Span {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return Span { rec: None };
    }
    Span {
        rec: Some((Arc::clone(stream), label(), kind, Instant::now())),
    }
}

/// Like [`span`], but with an explicit start instant captured earlier by
/// the caller. Used to record a span in pieces — e.g. the feed-forward
/// phase minus its just-in-time parameter waits.
pub fn span_starting_at(start: Instant, kind: TaskKind, label: impl FnOnce() -> String) -> Span {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return Span { rec: None };
    }
    let stream = STREAM.with(|s| s.borrow().clone());
    Span {
        rec: Some((stream, label(), kind, start)),
    }
}

/// Records a completed interval on an explicitly named stream. Used where
/// the emitting code knows better than the thread default (e.g. rendezvous
/// before the worker scope exists).
pub fn record(stream: &str, kind: TaskKind, label: impl FnOnce() -> String, start: Instant) {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return;
    }
    t.push(Arc::from(stream), label(), kind, start, Instant::now());
}

/// Adds `delta` to a named counter (created at zero). Counters ride along in
/// the Chrome-trace dump and are meant for run totals: per-peer bytes, send
/// retries, heartbeats, checkpoint saves.
pub fn add_counter(name: &str, delta: f64) {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return;
    }
    let mut counters = t.counters.lock().unwrap();
    *counters.entry(name.to_string()).or_insert(0.0) += delta;
}

/// A snapshot of all counters, sorted by name.
#[must_use]
pub fn counters() -> Vec<(String, f64)> {
    let t = tracer();
    t.counters
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Discards all recorded events and counters (the enabled flag and dump
/// path are kept). Benches use this between compared runs.
pub fn clear() {
    let t = tracer();
    t.drain();
    t.collected.lock().unwrap().clear();
    t.counters.lock().unwrap().clear();
}

/// Replays every recorded event into a [`Timeline`].
#[must_use]
pub fn timeline() -> Timeline {
    timeline_filtered(|_| true)
}

/// Replays recorded events whose stream name satisfies `select` into a
/// [`Timeline`]. Stream ids are assigned in order of first appearance.
#[must_use]
pub fn timeline_filtered(select: impl Fn(&str) -> bool) -> Timeline {
    let t = tracer();
    t.drain();
    let collected = t.collected.lock().unwrap();
    let mut tl = Timeline::new();
    let mut ids: BTreeMap<Arc<str>, StreamId> = BTreeMap::new();
    for ev in collected.iter().filter(|ev| select(&ev.stream)) {
        let id = *ids
            .entry(ev.stream.clone())
            .or_insert_with(|| tl.add_stream(ev.stream.as_ref()));
        tl.record_span(
            id,
            ev.label.clone(),
            ev.kind,
            SimTime::from_nanos(ev.start_ns),
            SimTime::from_nanos(ev.end_ns),
        );
    }
    tl
}

/// Splits the recorded events into one [`Timeline`] per scope (the stream
/// name up to the first `/`), sorted by scope name.
#[must_use]
pub fn timeline_groups() -> Vec<(String, Timeline)> {
    let t = tracer();
    t.drain();
    let scopes: Vec<String> = {
        let collected = t.collected.lock().unwrap();
        let mut s: Vec<String> = collected
            .iter()
            .map(|ev| ev.stream.split('/').next().unwrap_or("").to_string())
            .collect();
        s.sort();
        s.dedup();
        s
    };
    scopes
        .into_iter()
        .map(|scope| {
            let prefix = format!("{scope}/");
            let tl = timeline_filtered(|name| name.starts_with(&prefix));
            (scope, tl)
        })
        .collect()
}

/// Measured communication-overlap totals for one timeline, following the
/// paper's Fig. 8 accounting: communication time is the busy time of the
/// per-bucket OP1/OP2 spans on `…/comm` streams; the *exposed* part is
/// whatever is not covered by feed-forward or backprop spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapSummary {
    /// Total per-bucket communication time (`…/comm` streams only).
    pub comm: SimDuration,
    /// The part of `comm` not hidden behind compute.
    pub exposed: SimDuration,
    /// Total feed-forward plus backprop time.
    pub compute: SimDuration,
    /// Wall-clock span of the whole timeline.
    pub makespan: SimDuration,
    /// Number of communication spans measured.
    pub comm_spans: usize,
}

impl OverlapSummary {
    /// Computes the summary from measured (or simulated) spans.
    #[must_use]
    pub fn from_timeline(tl: &Timeline) -> Self {
        let on_comm_stream = |t: &dear_sim::Task| {
            t.kind == TaskKind::Communication && tl.stream_name(t.stream).ends_with("/comm")
        };
        let comm: SimDuration = tl
            .tasks()
            .iter()
            .filter(|t| on_comm_stream(t))
            .map(dear_sim::Task::duration)
            .sum();
        let comm_spans = tl.tasks().iter().filter(|t| on_comm_stream(t)).count();
        let exposed =
            tl.exposed_time_filtered(on_comm_stream, &[TaskKind::FeedForward, TaskKind::Backprop]);
        let compute = tl.busy_time(TaskKind::FeedForward) + tl.busy_time(TaskKind::Backprop);
        OverlapSummary {
            comm,
            exposed,
            compute,
            makespan: tl.makespan(),
            comm_spans,
        }
    }

    /// The hidden part of communication, `comm − exposed`.
    #[must_use]
    pub fn hidden(&self) -> SimDuration {
        self.comm.saturating_sub(self.exposed)
    }

    /// Fraction of communication hidden behind compute, in `[0, 1]`
    /// (`0` when no communication was measured).
    #[must_use]
    pub fn overlap_ratio(&self) -> f64 {
        let total = self.comm.as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        1.0 - self.exposed.as_secs_f64() / total
    }

    /// One-line machine-greppable summary, tagged with `scope`.
    #[must_use]
    pub fn to_line(&self, scope: &str) -> String {
        format!(
            "dear-trace scope={scope} comm_ms={:.3} exposed_ms={:.3} hidden_ms={:.3} \
             compute_ms={:.3} makespan_ms={:.3} overlap={:.1}% spans={}",
            self.comm.as_secs_f64() * 1e3,
            self.exposed.as_secs_f64() * 1e3,
            self.hidden().as_secs_f64() * 1e3,
            self.compute.as_secs_f64() * 1e3,
            self.makespan.as_secs_f64() * 1e3,
            self.overlap_ratio() * 100.0,
            self.comm_spans,
        )
    }
}

/// Writes `tl` (plus the current counters) as a Chrome-trace JSON file,
/// loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_chrome_trace(path: &Path, tl: &Timeline) -> io::Result<()> {
    let json = dear_sim::trace::to_chrome_trace_with_counters(tl, &counters());
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // The recorder is process-global; serialize the tests that mutate it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        clear();
        set_enabled(false);
        set_thread_stream("off0", "compute");
        span(TaskKind::FeedForward, || "FF".to_string()).end();
        add_counter("off0.count", 1.0);
        let tl = timeline_filtered(|s| s.starts_with("off0/"));
        assert!(tl.tasks().is_empty());
        assert!(!counters().iter().any(|(k, _)| k == "off0.count"));
    }

    #[test]
    fn spans_round_trip_into_a_serial_timeline() {
        let _guard = TEST_LOCK.lock().unwrap();
        clear();
        set_enabled(true);
        set_thread_stream("rt0", "comm");
        for i in 0..3 {
            let s = span(TaskKind::Communication, || format!("OP1.RS[g{i}]"));
            std::thread::sleep(Duration::from_millis(2));
            s.end();
        }
        set_enabled(false);
        let tl = timeline_filtered(|s| s.starts_with("rt0/"));
        assert_eq!(tl.tasks().len(), 3);
        assert_eq!(tl.stream_count(), 1);
        assert_eq!(tl.stream_name(StreamId(0)), "rt0/comm");
        for t in tl.tasks() {
            assert_eq!(t.kind, TaskKind::Communication);
            assert!(t.duration() >= SimDuration::from_millis(1), "{t:?}");
        }
        // Sequential spans from one thread never overlap.
        tl.assert_streams_serial();
        let summary = OverlapSummary::from_timeline(&tl);
        assert_eq!(summary.comm_spans, 3);
        // No compute spans recorded => all communication is exposed.
        assert_eq!(summary.exposed, summary.comm);
        assert!(summary.to_line("rt0").contains("spans=3"));
    }

    #[test]
    fn counters_accumulate_and_clear() {
        let _guard = TEST_LOCK.lock().unwrap();
        clear();
        set_enabled(true);
        add_counter("ct0.bytes", 100.0);
        add_counter("ct0.bytes", 28.0);
        set_enabled(false);
        let got = counters()
            .into_iter()
            .find(|(k, _)| k == "ct0.bytes")
            .map(|(_, v)| v);
        assert_eq!(got, Some(128.0));
        clear();
        assert!(!counters().iter().any(|(k, _)| k == "ct0.bytes"));
    }

    #[test]
    fn overlap_summary_interval_arithmetic() {
        // Synthetic measured timeline: comm [0,100µs) on r/comm, compute
        // [0,60µs) on r/compute => 40µs exposed, 60% overlap.
        let mut tl = Timeline::new();
        let comm = tl.add_stream("r/comm");
        let compute = tl.add_stream("r/compute");
        tl.record_span(
            comm,
            "OP1.RS[g0]",
            TaskKind::Communication,
            SimTime::ZERO,
            SimTime::from_nanos(100000),
        );
        tl.record_span(
            compute,
            "BP[0]",
            TaskKind::Backprop,
            SimTime::ZERO,
            SimTime::from_nanos(60000),
        );
        let s = OverlapSummary::from_timeline(&tl);
        assert_eq!(s.comm, SimDuration::from_micros(100));
        assert_eq!(s.exposed, SimDuration::from_micros(40));
        assert_eq!(s.hidden(), SimDuration::from_micros(60));
        assert!((s.overlap_ratio() - 0.6).abs() < 1e-12);
        assert_eq!(s.comm_spans, 1);
    }

    #[test]
    fn unique_scopes_differ() {
        let a = unique_scope(0);
        let b = unique_scope(0);
        assert_ne!(a, b);
        assert!(a.ends_with(".r0"));
    }
}
