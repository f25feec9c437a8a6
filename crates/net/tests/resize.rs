//! In-place elastic resize acceptance tests.
//!
//! Property layer: a grow (P→P+1) rendezvous always converges to dense
//! ranks, and every all-reduce algorithm over the resized world is
//! **bit-identical** to a fresh world of the same size — the resize must
//! leave zero numerical or protocol residue. Shrinking is a clause of the
//! fabric contract (`transport_contract.rs`), run on every fabric.
//!
//! End-to-end layer: the real `dear-launch` binary runs a 4-rank demo
//! world, one rank dies abruptly mid-training, and the survivors must
//! resize in place — no process restart, no checkpoint replay — with
//! parameters bitwise-identical across survivors at every post-resize
//! boundary.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::process::Command;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dear_collectives::{
    ring_all_reduce, CollectiveError, DType, LocalFabric, ReduceOp, Transport, WorldChange,
};
use dear_net::{tiered_loopback_with, NetConfig, TcpEndpoint};
use proptest::prelude::*;

mod common;
use common::{bit_identical, collectives, run};

/// Builds a `world`-rank TCP mesh by hand so the test keeps the master
/// address (a fresh joiner derives the resize rendezvous address from it).
fn tcp_world_by_hand(
    world: usize,
    tweak: &(impl Fn(NetConfig) -> NetConfig + Sync),
) -> (Vec<TcpEndpoint>, String) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let eps = std::thread::scope(|s| {
        let workers: Vec<_> = (1..world)
            .map(|r| {
                let cfg = tweak(NetConfig::new(world, r, addr.clone()));
                s.spawn(move || TcpEndpoint::connect(&cfg).unwrap())
            })
            .collect();
        let cfg0 = tweak(NetConfig::new(world, 0, addr.clone()));
        let ep0 = TcpEndpoint::connect_with_listener(&cfg0, listener).unwrap();
        let mut eps = vec![ep0];
        eps.extend(workers.into_iter().map(|h| h.join().unwrap()));
        eps
    });
    (eps, addr)
}

/// The receive deadline of a resize test: a guard against a hang only.
const HANG_GUARD: Duration = Duration::from_secs(60);

fn resize_tweak(cfg: NetConfig) -> NetConfig {
    let mut cfg = cfg
        .with_connect_timeout(Duration::from_secs(10))
        .with_resize_window(Duration::from_millis(400));
    cfg.recv_timeout = Some(HANG_GUARD);
    cfg
}

/// Grow P→P+1: a fresh joiner is admitted at the appended rank, the
/// members converge to dense ranks, and every algorithm then behaves
/// exactly like a fresh (P+1)-rank world.
fn grow_case(world: usize, d: usize, salt: u64) -> Result<(), String> {
    let fresh = run(&LocalFabric::create(world + 1), |ep| {
        collectives(ep, d, salt, DType::F32)
    });
    let (mut eps, addr) = tcp_world_by_hand(world, &resize_tweak);
    let jcfg = resize_tweak(NetConfig::new(world, 1, addr));
    let (changes, joiner) = std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .iter_mut()
            .map(|ep| s.spawn(move || ep.reconfigure(None).unwrap()))
            .collect();
        let hj = s.spawn(move || TcpEndpoint::join_resize(&jcfg, 1).unwrap());
        let changes: Vec<WorldChange> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (changes, hj.join().unwrap())
    });
    prop_assert_eq!(joiner.world_size(), world + 1);
    prop_assert_eq!(joiner.rank(), world, "fresh joiners are appended last");
    let mut dense: Vec<usize> = changes.iter().map(|c| c.new_rank).collect();
    dense.push(joiner.rank());
    dense.sort_unstable();
    prop_assert_eq!(dense, (0..world + 1).collect::<Vec<_>>());
    for c in &changes {
        prop_assert_eq!(c.new_world, world + 1);
        prop_assert_eq!(c.generation, 1);
    }
    eps.push(joiner);
    eps.sort_by_key(|ep| ep.rank());
    let resized = run(&eps, |ep| collectives(ep, d, salt, DType::F32));
    bit_identical(&fresh, &resized)
}

proptest! {
    // Every case stands up a real TCP mesh and pays a full resize window;
    // keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn grow_converges_to_dense_ranks_and_matches_a_fresh_world(
        world in 2usize..5,
        d in 0usize..160,
        salt in any::<u64>(),
    ) {
        grow_case(world, d, salt)?;
    }
}

/// Two-tier elastic resize: a 2-host × 2-rank tiered world (shm within a
/// host, TCP between hosts) loses one co-located rank abruptly. The
/// survivors span both tiers asymmetrically afterwards — the bereaved
/// host keeps a 1-member fabric (all its traffic moves to TCP) while the
/// intact host still routes intra-host over shm — and the resize must
/// reconfigure both tiers in place: the TCP rendezvous adjudicates, its
/// WELCOME tables drive the shm remap, and every algorithm then matches a
/// fresh 3-rank world bit for bit.
#[test]
fn tiered_resize_survives_losing_a_co_located_rank() {
    let salt = 0xD_EA_11;
    let d = 96;
    let fresh = run(&LocalFabric::create(3), |ep| {
        collectives(ep, d, salt, DType::F32)
    });
    // Hosts: {0, 1} on host 0, {2, 3} on host 1. Kill rank 1.
    let mut eps = tiered_loopback_with(2, 2, resize_tweak).unwrap();
    drop(eps.remove(1));
    let changes: Vec<WorldChange> = std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .iter_mut()
            .map(|ep| s.spawn(move || ep.reconfigure(None).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut dense: Vec<usize> = changes.iter().map(|c| c.new_rank).collect();
    dense.sort_unstable();
    assert_eq!(dense, vec![0, 1, 2]);
    for (ep, c) in eps.iter().zip(&changes) {
        assert_eq!(c.new_world, 3);
        assert_eq!(ep.world_size(), 3);
    }
    // Tier routing after the resize: the intact host's pair still rides
    // shm, the bereaved survivor reaches everyone over TCP only.
    for (ep, c) in eps.iter().zip(&changes) {
        let hosts = ep.host_ids();
        for peer in 0..3 {
            if peer == c.new_rank {
                continue;
            }
            assert_eq!(
                ep.is_local(peer),
                hosts[peer] == hosts[c.new_rank],
                "new rank {} → peer {peer}: tier routing disagrees with the host table",
                c.new_rank
            );
        }
    }
    let bereaved = &eps[0]; // old rank 0, alone on host 0 now
    assert_eq!(changes[0].old_rank, 0);
    assert!(
        (0..3).all(|p| !bereaved.is_local(p)),
        "host 0 lost its pair"
    );
    let intact = &eps[1]; // old rank 2, still sharing host 1 with old rank 3
    let partner = changes[2].new_rank;
    assert!(
        intact.is_local(partner),
        "the intact host's pair must keep its shm tier"
    );
    // And the resized two-tier world still computes exactly.
    eps.sort_by_key(|ep| ep.rank());
    let resized = run(&eps, |ep| collectives(ep, d, salt, DType::F32));
    bit_identical(&fresh, &resized).unwrap();
}

/// The mirror case with a loan out: on the same 2 × 2 world, rank 2 dies
/// on host 1 while the survivors run a ring all-reduce, and rank 0 on
/// host 0 has lent its shm peer, rank 1, chunks that rank 1 has not
/// received, because rank 1 joins only after rank 2 is gone. Every
/// survivor's collective must end in a typed error within its receive
/// deadline, the outstanding loans settled or revoked rather than hung.
/// The survivors then resize in place and match a fresh 3-rank world bit
/// for bit.
#[test]
fn tiered_resize_survives_a_departure_on_the_other_host_with_a_loan_out() {
    let salt = 0xB0_12_0E;
    let d = 96;
    let deadline = Duration::from_secs(2);
    let fresh = run(&LocalFabric::create(3), |ep| {
        collectives(ep, d, salt, DType::F32)
    });
    let mut eps = tiered_loopback_with(2, 2, resize_tweak).unwrap();
    for ep in &eps {
        ep.set_recv_timeout(Some(deadline));
    }
    let victim = eps.remove(2);
    let gone = Barrier::new(2);
    let start = Instant::now();
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let gone = &gone;
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            drop(victim);
            gone.wait();
        });
        let handles: Vec<_> = eps
            .iter()
            .map(|ep| {
                s.spawn(move || {
                    if ep.rank() == 1 {
                        gone.wait();
                    }
                    let mut data = vec![ep.rank() as f32; 4096];
                    let out = ring_all_reduce(ep, &mut data, ReduceOp::Sum);
                    (ep.rank(), out, start.elapsed())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (rank, out, elapsed) in outcomes {
        assert!(
            matches!(
                out,
                Err(CollectiveError::Timeout { .. }
                    | CollectiveError::Disconnected { .. }
                    | CollectiveError::Aborted { .. })
            ),
            "rank {rank}: {out:?}"
        );
        assert!(
            elapsed < 3 * deadline,
            "rank {rank}: the collective ended after {elapsed:?}: {out:?}"
        );
    }
    for ep in &eps {
        ep.set_recv_timeout(Some(HANG_GUARD));
    }
    let changes: Vec<WorldChange> = std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .iter_mut()
            .map(|ep| s.spawn(move || ep.reconfigure(None).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for c in &changes {
        assert_eq!((c.new_world, c.generation), (3, 1));
    }
    assert!(
        eps[0].is_local(changes[1].new_rank),
        "host 0 keeps its shm pair"
    );
    assert!((0..3).all(|p| !eps[2].is_local(p)), "host 1 lost its pair");
    eps.sort_by_key(|ep| ep.rank());
    let resized = run(&eps, |ep| collectives(ep, d, salt, DType::F32));
    bit_identical(&fresh, &resized).unwrap();
}

const LAUNCH: &str = env!("CARGO_BIN_EXE_dear-launch");

/// The headline acceptance test: a 4-rank TCP demo world loses rank 1 to
/// an abrupt death (`process::exit` mid-collective — indistinguishable
/// from SIGKILL at the network layer) and must finish on 3 ranks by
/// resizing in place: no supervisor restart, no checkpoint replay, and
/// survivor parameters bitwise-identical at every post-resize boundary.
#[test]
fn killed_rank_is_survived_by_an_in_place_resize_without_restart() {
    let start = Instant::now();
    let output = Command::new(LAUNCH)
        .args([
            "--world",
            "4",
            "--demo",
            "--steps",
            "25",
            "--timeout-secs",
            "120",
            "--elastic-resize",
        ])
        .env("DEAR_RECV_TIMEOUT_MS", "3000")
        .env("DEAR_RESIZE_WINDOW_MS", "2000")
        .env("DEAR_DEMO_EXIT_RANK", "1")
        .env("DEAR_DEMO_EXIT_AT_STEP", "7")
        .output()
        .expect("running dear-launch");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "elastic-resize run failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("dying abruptly at step 7"),
        "the injected death never fired:\n{stderr}"
    );
    assert!(
        stderr.contains("resizing in place"),
        "no survivor started an in-place resize:\n{stderr}"
    );
    assert!(
        stderr.contains("resumed at step"),
        "no survivor resumed after the resize:\n{stderr}"
    );
    // The whole point: neither recovery mechanism from the restart era.
    assert!(
        !stderr.contains("restarting in"),
        "the supervisor restarted the world:\n{stderr}"
    );
    assert!(
        !stderr.contains("resuming from checkpoint"),
        "a rank replayed a checkpoint:\n{stderr}"
    );
    assert!(
        stderr.contains("resized in place and exited cleanly"),
        "the supervisor did not report tolerated departures:\n{stderr}"
    );

    // Survivors must agree bit-for-bit at every post-resize boundary:
    // collect the `world=3` hash lines and group them by step.
    let mut by_step: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for line in stderr.lines() {
        if !line.starts_with("dear-demo rank=") || !line.contains(" world=3 ") {
            continue;
        }
        let field = |key: &str| -> Option<String> {
            line.split_whitespace()
                .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
                .map(str::to_string)
        };
        let (Some(step), Some(hash)) = (field("step"), field("params_hash")) else {
            continue;
        };
        by_step.entry(step.parse().unwrap()).or_default().push(hash);
    }
    assert!(
        by_step.len() >= 3,
        "expected several post-resize boundaries, got {by_step:?}\nstderr:\n{stderr}"
    );
    for (step, hashes) in &by_step {
        assert_eq!(
            hashes.len(),
            3,
            "step {step}: expected all 3 survivors to report, got {hashes:?}"
        );
        assert!(
            hashes.iter().all(|h| h == &hashes[0]),
            "step {step}: survivor parameters diverged: {hashes:?}"
        );
    }

    // Final summaries: exactly the 3 survivors, dense ranks, one hash.
    let finals: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("dear-demo rank="))
        .collect();
    assert_eq!(
        finals.len(),
        3,
        "expected 3 survivor summaries\nstdout:\n{stdout}"
    );
    for r in 0..3 {
        assert!(
            finals
                .iter()
                .any(|l| l.contains(&format!("rank={r} world=3 "))),
            "missing dense rank {r} summary\nstdout:\n{stdout}"
        );
    }
    // The hash token alone: what follows it on the line (`optim_bytes=`,
    // the size of the rank's own optimizer shard) differs by rank.
    let hash_of = |l: &str| {
        let rest = l.split("params_hash=").nth(1).unwrap();
        rest.split_whitespace().next().unwrap().to_string()
    };
    assert!(
        finals.iter().all(|l| hash_of(l) == hash_of(finals[0])),
        "final survivor parameters diverged\nstdout:\n{stdout}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(150),
        "acceptance test took {:?}",
        start.elapsed()
    );
}
