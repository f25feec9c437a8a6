//! Property-based tests for the simulation substrate: timeline stream
//! serialization and exposed-time interval arithmetic against a brute-force
//! oracle.

use dear_sim::{SimDuration, SimTime, TaskKind, Timeline};
use proptest::prelude::*;

/// A random task description: (stream, kind, duration_ns, dep_back).
type TaskDesc = (u8, u8, u64, u8);

fn kind_of(code: u8) -> TaskKind {
    match code % 4 {
        0 => TaskKind::FeedForward,
        1 => TaskKind::Backprop,
        2 => TaskKind::Communication,
        _ => TaskKind::Other,
    }
}

fn build_timeline(streams: usize, descs: &[TaskDesc]) -> Timeline {
    let mut tl = Timeline::new();
    let stream_ids: Vec<_> = (0..streams)
        .map(|i| tl.add_stream(format!("s{i}")))
        .collect();
    let mut ids = Vec::new();
    for &(s, k, d, dep_back) in descs {
        let deps: Vec<_> = if dep_back > 0 && !ids.is_empty() {
            let idx = ids.len().saturating_sub(dep_back as usize);
            vec![ids[idx.min(ids.len() - 1)]]
        } else {
            Vec::new()
        };
        let id = tl.schedule(
            stream_ids[(s as usize) % streams],
            "t",
            kind_of(k),
            SimDuration::from_nanos(d % 10_000 + 1),
            &deps,
        );
        ids.push(id);
    }
    tl
}

/// Brute-force exposed time at 1 ns resolution (tasks are small).
fn brute_force_exposed(tl: &Timeline, kind: TaskKind, cover: &[TaskKind]) -> u64 {
    let end = tl.finish_time().as_nanos();
    let mut covered = vec![false; end as usize + 1];
    for t in tl.tasks().iter().filter(|t| cover.contains(&t.kind)) {
        for ns in t.start.as_nanos()..t.end.as_nanos() {
            covered[ns as usize] = true;
        }
    }
    let mut exposed = 0;
    for t in tl.tasks().iter().filter(|t| t.kind == kind) {
        for ns in t.start.as_nanos()..t.end.as_nanos() {
            if !covered[ns as usize] {
                exposed += 1;
            }
        }
    }
    exposed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streams_never_overlap(
        streams in 1usize..4,
        descs in prop::collection::vec(any::<TaskDesc>(), 1..40),
    ) {
        let tl = build_timeline(streams, &descs);
        tl.assert_streams_serial();
    }

    #[test]
    fn dependencies_precede_dependents(
        streams in 1usize..4,
        descs in prop::collection::vec(any::<TaskDesc>(), 1..30),
    ) {
        let tl = build_timeline(streams, &descs);
        // Makespan equals the latest task end; all tasks start at or after 0.
        let mut latest = SimTime::ZERO;
        for t in tl.tasks() {
            prop_assert!(t.end > t.start);
            latest = latest.max(t.end);
        }
        prop_assert_eq!(tl.finish_time(), latest);
    }

    #[test]
    fn exposed_time_matches_brute_force(
        streams in 2usize..4,
        descs in prop::collection::vec(any::<TaskDesc>(), 1..25),
    ) {
        let tl = build_timeline(streams, &descs);
        let cover = [TaskKind::FeedForward, TaskKind::Backprop];
        let fast = tl.exposed_time(TaskKind::Communication, &cover).as_nanos();
        let slow = brute_force_exposed(&tl, TaskKind::Communication, &cover);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn busy_time_partitions_across_kinds(
        streams in 1usize..3,
        descs in prop::collection::vec(any::<TaskDesc>(), 1..30),
    ) {
        let tl = build_timeline(streams, &descs);
        let total: u64 = tl.tasks().iter().map(|t| t.duration().as_nanos()).sum();
        let by_kind: u64 = [
            TaskKind::FeedForward,
            TaskKind::Backprop,
            TaskKind::Communication,
            TaskKind::Other,
        ]
        .iter()
        .map(|&k| tl.busy_time(k).as_nanos())
        .sum();
        prop_assert_eq!(total, by_kind);
    }
}
