//! What a `TcpEndpoint` costs in threads: a rank of a world of N runs N − 1
//! readers and one heartbeat monitor, named so that `top -H`, `perf` and a
//! panic message say which rank and which peer — and nothing outlives the
//! endpoint. One test in a process of its own: the census reads
//! `/proc/self/task`, which any other test's endpoints would show up in.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use dear_net::tcp_loopback;

/// The names of this process's `dear-*` threads, sorted.
fn dear_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("listing this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|name| name.starts_with("dear-"))
        .collect();
    names.sort();
    names
}

/// A thread names itself as it starts and leaves `/proc` a moment after it
/// is joined, so the census is given a moment to settle.
fn assert_census(want: &[&str]) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while dear_threads() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(dear_threads(), want);
}

#[test]
fn a_rank_runs_one_reader_per_peer_and_one_monitor() {
    assert_census(&[]);
    let endpoints = tcp_loopback(3).expect("loopback rendezvous");
    assert_census(&[
        "dear-hb-r0",
        "dear-hb-r1",
        "dear-hb-r2",
        "dear-tcp-r0-p1",
        "dear-tcp-r0-p2",
        "dear-tcp-r1-p0",
        "dear-tcp-r1-p2",
        "dear-tcp-r2-p0",
        "dear-tcp-r2-p1",
    ]);
    drop(endpoints);
    assert_census(&[]);
}
