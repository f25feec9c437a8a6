//! The traced pass's reduction: one rank's bench spans, link events and
//! `dear_core::trace` spans on one clock, reduced to the per-layer rows
//! when the run ends.
//!
//! Two threads carry spans. On the **compute** thread the bench's step
//! spans are the parents of the runtime's `FF`/`BP`/`FFWAIT` spans; on the
//! **comm** thread the runtime's per-group `OP1.RS`/`OP2.AG`/`AR` spans are
//! the parents of the decorator's `send`/`recv` events. Self time is a
//! span's duration minus what its children cover.

use std::time::Instant;

use dear_core::trace::{self, TaskKind};

use crate::link::{LinkEvent, LinkOp};
use crate::stats::{parents, self_times, Interval};

/// Stream the clock anchor is recorded on.
const ANCHOR_STREAM: &str = "bench/anchor";

/// Turns the recorder on and records an anchor span, so that bench-side
/// `Instant`s can later be placed on the recorder's (private) clock.
pub fn start_recording() -> Instant {
    trace::clear();
    trace::set_enabled(true);
    let anchor = Instant::now();
    trace::record(
        ANCHOR_STREAM,
        TaskKind::Other,
        || "anchor".to_string(),
        anchor,
    );
    anchor
}

/// What the worker thread of one rank saw, in bench-side `Instant`s.
pub struct RankTrace {
    pub rank: usize,
    pub warmup: u64,
    /// Start and end of every timed `train_step`.
    pub steps: Vec<(Instant, Instant)>,
    /// End of the final `synchronize`.
    pub sync_end: Instant,
    pub link: Vec<LinkEvent>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Reduces one rank's trace to per-step rows. `anchor` is what
/// [`start_recording`] returned in this process.
///
/// # Errors
///
/// Returns a message when the recorder holds no spans for the rank.
pub fn reduce(anchor: Instant, rt: &RankTrace) -> Result<Vec<(String, f64)>, String> {
    let anchor_ns = trace::timeline_filtered(|s| s == ANCHOR_STREAM)
        .tasks()
        .first()
        .map(|t| t.start.as_nanos())
        .ok_or("the clock anchor was not recorded")?;
    let to_ns = |t: Instant| anchor_ns + t.saturating_duration_since(anchor).as_nanos() as u64;
    // `run_worker` names a rank's scope `s<id>.r<rank>`; the endpoint's own
    // `net.r<rank>` scope carries no training spans.
    let suffix = format!(".r{}", rt.rank);
    let (_, tl) = trace::timeline_groups()
        .into_iter()
        .find(|(scope, _)| scope.starts_with('s') && scope.ends_with(&suffix))
        .ok_or_else(|| format!("no recorded spans for rank {}", rt.rank))?;
    let n = rt.steps.len() as f64;
    if rt.steps.is_empty() {
        return Err("no timed step to reduce".to_string());
    }
    let on = |t: &dear_sim::Task, role: &str| tl.stream_name(t.stream).ends_with(role);
    let iv = |t: &dear_sim::Task| Interval {
        start: t.start.as_nanos(),
        end: t.end.as_nanos(),
    };

    // Comm-thread window: from the first timed step's backprop (its OP1s
    // are the first that belong to a timed step; the all-gathers still in
    // flight before it belong to warm-up) to the end of `synchronize`
    // (which drains the last timed step's OP2s) — exactly N steps' worth.
    let first_bp = format!("BP[{}]", rt.warmup);
    let w0 = tl
        .tasks()
        .iter()
        .find(|t| t.label == first_bp && on(t, "/compute"))
        .map(|t| t.start.as_nanos())
        .ok_or("the first timed backprop span is missing")?;
    let w1 = to_ns(rt.sync_end);
    let in_window = |start: u64| start >= w0 && start <= w1;
    let is_comm = |t: &dear_sim::Task| {
        t.kind == TaskKind::Communication && on(t, "/comm") && in_window(t.start.as_nanos())
    };

    let comm: Vec<&dear_sim::Task> = tl.tasks().iter().filter(|t| is_comm(t)).collect();
    let comm_ns: u64 = comm.iter().map(|t| t.duration().as_nanos()).sum();
    let exposed_ns = tl
        .exposed_time_filtered(is_comm, &[TaskKind::FeedForward, TaskKind::Backprop])
        .as_nanos();
    let groups = comm
        .iter()
        .filter(|t| t.label.starts_with("OP1.RS") || t.label.starts_with("AR["))
        .count();
    let upd_ns: u64 = tl
        .tasks()
        .iter()
        .filter(|t| {
            t.label.starts_with("OP1.UPD") && on(t, "/comm") && in_window(t.start.as_nanos())
        })
        .map(|t| t.duration().as_nanos())
        .sum();

    // Comm thread: group spans are the parents of the link events.
    let link: Vec<&LinkEvent> = rt
        .link
        .iter()
        .filter(|e| in_window(to_ns(e.start)))
        .collect();
    let mut comm_tree: Vec<Interval> = comm.iter().map(|t| iv(t)).collect();
    comm_tree.extend(link.iter().map(|e| Interval {
        start: to_ns(e.start),
        end: to_ns(e.end),
    }));
    let own = self_times(&comm_tree, &parents(&comm_tree));
    let coll_self_ns: u64 = own[..comm.len()].iter().sum();

    let sends: Vec<&&LinkEvent> = link.iter().filter(|e| e.op == LinkOp::Send).collect();
    let dur = |e: &LinkEvent| e.end.duration_since(e.start).as_nanos() as u64;
    let send_ns: u64 = sends.iter().map(|e| dur(e)).sum();
    let send_bytes: usize = sends.iter().map(|e| e.bytes).sum();
    let recv_ns: u64 = link
        .iter()
        .filter(|e| e.op == LinkOp::Recv)
        .map(|e| dur(e))
        .sum();

    // Compute thread: the bench's step spans are the parents of FF / BP /
    // FFWAIT; what is left is the optimizer's own work in the step
    // (staging, job hand-off and, under WFBP, the wait for the reduced
    // gradients plus the local update).
    let s0 = to_ns(rt.steps[0].0);
    let s1 = to_ns(rt.steps[rt.steps.len() - 1].1);
    let mut step_tree: Vec<Interval> = rt
        .steps
        .iter()
        .map(|&(a, b)| Interval {
            start: to_ns(a),
            end: to_ns(b),
        })
        .collect();
    let compute: Vec<&dear_sim::Task> = tl
        .tasks()
        .iter()
        .filter(|t| on(t, "/compute") && t.start.as_nanos() >= s0 && t.end.as_nanos() <= s1)
        .collect();
    step_tree.extend(compute.iter().map(|t| iv(t)));
    let own = self_times(&step_tree, &parents(&step_tree));
    let step_self_ns: u64 = own[..rt.steps.len()].iter().sum();
    let ffwait_ns: u64 = compute
        .iter()
        .filter(|t| t.label.starts_with("FFWAIT"))
        .map(|t| t.duration().as_nanos())
        .sum();

    let hidden = if comm_ns == 0 {
        0.0
    } else {
        1.0 - exposed_ns as f64 / comm_ns as f64
    };
    Ok(vec![
        ("core.comm_ms_per_step".into(), ms(comm_ns) / n),
        ("core.exposed_comm_ms_per_step".into(), ms(exposed_ns) / n),
        ("core.hidden_frac".into(), hidden),
        ("core.upd_ms_per_step".into(), ms(upd_ns) / n),
        ("core.ffwait_ms_per_step".into(), ms(ffwait_ns) / n),
        ("core.step_self_ms_per_step".into(), ms(step_self_ns) / n),
        ("core.groups_per_step".into(), groups as f64 / n),
        ("core.coll_self_ms_per_step".into(), ms(coll_self_ns) / n),
        ("link.sends_per_step".into(), sends.len() as f64 / n),
        ("link.wire_bytes_per_step".into(), send_bytes as f64 / n),
        ("link.send_ms_per_step".into(), ms(send_ns) / n),
        ("link.recv_wait_ms_per_step".into(), ms(recv_ns) / n),
    ])
}
