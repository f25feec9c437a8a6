//! Failure injection: every collective must surface transport failures as
//! errors — never panic, hang, or corrupt — and leave the caller in a
//! position to report the failure.

use std::sync::atomic::{AtomicUsize, Ordering};

use dear_collectives::{
    double_tree_all_reduce, hierarchical_all_gather_phase, hierarchical_all_reduce,
    hierarchical_all_reduce_on_wire, hierarchical_reduce_scatter_phase, naive_all_reduce,
    rhd_all_reduce, ring_all_gather, ring_all_reduce, ring_reduce_scatter, tree_broadcast,
    tree_reduce, ClusterShape, CollectiveError, DType, LocalEndpoint, LocalFabric, Message,
    Placement, ReduceOp, Transport,
};

const F32: DType = DType::F32;

/// A transport whose sends start failing after a budget is exhausted.
/// With a zero budget every rank fails on its first send, so no rank can
/// be left blocked in a receive.
struct FailingTransport {
    inner: LocalEndpoint,
    send_budget: AtomicUsize,
}

impl FailingTransport {
    fn new(inner: LocalEndpoint, send_budget: usize) -> Self {
        FailingTransport {
            inner,
            send_budget: AtomicUsize::new(send_budget),
        }
    }
}

impl Transport for FailingTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }
    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        if self
            .send_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .is_err()
        {
            return Err(CollectiveError::Disconnected { peer: to });
        }
        self.inner.send(to, msg)
    }
    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        self.inner.recv(from)
    }
}

fn run_failing<R: Send>(
    world: usize,
    budget: usize,
    f: impl Fn(FailingTransport) -> R + Sync,
) -> Vec<R> {
    let eps = LocalFabric::create(world);
    std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| s.spawn(|| f(FailingTransport::new(ep, budget))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn ring_all_reduce_surfaces_send_failure() {
    let errs = run_failing(4, 0, |t| {
        let mut data = vec![1.0f32; 16];
        ring_all_reduce(&t, &mut data, ReduceOp::Sum).unwrap_err()
    });
    for e in errs {
        assert!(matches!(e, CollectiveError::Disconnected { .. }));
    }
}

#[test]
fn reduce_scatter_and_all_gather_surface_send_failure() {
    let errs = run_failing(3, 0, |t| {
        let mut data = vec![1.0f32; 9];
        let rs = ring_reduce_scatter(&t, &mut data, ReduceOp::Sum).unwrap_err();
        let ag = ring_all_gather(&t, &mut data, 0).unwrap_err();
        (rs, ag)
    });
    for (rs, ag) in errs {
        assert!(matches!(rs, CollectiveError::Disconnected { .. }));
        assert!(matches!(ag, CollectiveError::Disconnected { .. }));
    }
}

#[test]
fn tree_collectives_surface_send_failure() {
    // In a tree, leaves send first and the root only receives; with a zero
    // send budget every non-root rank errors on its own send, and the root
    // errors on recv (its children died). Either way: an error, no panic.
    let results = run_failing(4, 0, |t| {
        let mut data = vec![1.0f32; 16];
        let reduce_err = tree_reduce(&t, &mut data, 0, ReduceOp::Sum, F32).is_err();
        // Broadcast from a root that cannot send.
        let bcast_err = tree_broadcast(&t, &mut data, t.rank(), F32).is_err();
        (reduce_err, bcast_err)
    });
    // Rank 0 (root) may legitimately succeed at reduce only if all its
    // children's messages arrived — impossible here, so everyone errs.
    for (reduce_err, bcast_err) in results {
        assert!(reduce_err && bcast_err);
    }
}

#[test]
fn remaining_all_reduce_variants_surface_send_failure() {
    let placement = Placement::from_shape(ClusterShape::new(2, 2));
    let errs = run_failing(4, 0, |t| {
        let mut a = vec![1.0f32; 16];
        let mut b = vec![1.0f32; 16];
        let mut c = vec![1.0f32; 16];
        let mut d = vec![1.0f32; 16];
        (
            rhd_all_reduce(&t, &mut a, ReduceOp::Sum, F32).is_err(),
            double_tree_all_reduce(&t, &mut b, ReduceOp::Sum, F32).is_err(),
            naive_all_reduce(&t, &mut c, ReduceOp::Sum, F32).is_err(),
            hierarchical_all_reduce_on_wire(&t, &placement, &mut d, ReduceOp::Sum, F32).is_err(),
        )
    });
    for (rhd, dt, naive, hier) in errs {
        assert!(rhd && dt && naive && hier);
    }
}

#[test]
fn hierarchical_surfaces_send_failure() {
    let errs = run_failing(4, 0, |t| {
        let mut data = vec![1.0f32; 8];
        hierarchical_all_reduce(&t, ClusterShape::new(2, 2), &mut data, ReduceOp::Sum).unwrap_err()
    });
    for e in errs {
        assert!(matches!(e, CollectiveError::Disconnected { .. }));
    }
}

#[test]
fn partial_budget_failures_error_on_every_rank_without_hanging() {
    // A budget of a few of the ring's six sends per rank: the send after
    // the budget fails mid-collective — inside the reduce-scatter (1), at
    // the all-gather's first round (3), at its last (5).
    // All ranks terminate with an error (the peer either stopped sending —
    // recv error — or our own send failed).
    for budget in [1, 3, 5] {
        let errs = run_failing(4, budget, |t| {
            let mut data = vec![1.0f32; 16];
            ring_all_reduce(&t, &mut data, ReduceOp::Sum).is_err()
        });
        assert!(errs.into_iter().all(|e| e), "budget {budget}");
    }
}

#[test]
fn hierarchical_partial_budget_failures_error_on_every_rank_without_hanging() {
    // The 2-level ring (intra-node reduce-scatter → inter-node ring →
    // intra-node all-gather) crosses two GroupTransport views; a failure
    // landing inside the inter-node phase must still unwind every rank of
    // every node group. Budgets chosen to hit each phase: 0 = first intra
    // send, 1–2 = mid intra ring, 3 = inter-node phase (the full 2×2
    // collective completes in 4 sends per rank, so 3 is the last failing
    // budget there).
    let placement = Placement::from_shape(ClusterShape::new(2, 2));
    for budget in [0usize, 1, 2, 3] {
        let errs = run_failing(4, budget, |t| {
            let mut data = vec![1.0f32; 16];
            hierarchical_all_reduce_on_wire(&t, &placement, &mut data, ReduceOp::Sum, F32).is_err()
        });
        assert!(
            errs.into_iter().all(|e| e),
            "budget {budget}: some rank returned Ok"
        );
    }
}

#[test]
fn hierarchical_phase_pair_surfaces_send_failure_in_either_phase() {
    // The decoupled OP1/OP2 pair (what DeAR actually overlaps): whichever
    // phase hits the exhausted budget must error; a shard obtained from a
    // successful OP1 must still surface OP2's failure.
    let placement = Placement::from_shape(ClusterShape::new(2, 2));
    let errs = run_failing(4, 0, |t| {
        let mut data = vec![1.0f32; 8];
        hierarchical_reduce_scatter_phase(&t, &placement, &mut data, ReduceOp::Sum, F32)
            .unwrap_err()
    });
    for e in errs {
        assert!(matches!(e, CollectiveError::Disconnected { .. }));
    }
    // Enough budget for OP1 (intra RS: 1 send, inter RS: 1 send per rank at
    // world 2×2) but not OP2.
    let results = run_failing(4, 2, |t| {
        let mut data = vec![1.0f32; 8];
        match hierarchical_reduce_scatter_phase(&t, &placement, &mut data, ReduceOp::Sum, F32) {
            Ok(shard) => {
                hierarchical_all_gather_phase(&t, &placement, &mut data, shard, F32).is_err()
            }
            Err(_) => true, // budget exhausted already in OP1 on this rank
        }
    });
    assert!(results.into_iter().all(|failed| failed));
}

#[test]
fn recv_timeout_unblocks_a_rank_whose_peer_died_mid_collective() {
    // Rank 1 fails its first send and returns; rank 0's ring step then
    // waits on a message that will never come. With a recv deadline set it
    // gets Timeout instead of hanging the test forever.
    let eps = LocalFabric::create(2);
    let results: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                s.spawn(move || {
                    assert!(ep.set_recv_timeout(Some(std::time::Duration::from_millis(200))));
                    if ep.rank() == 1 {
                        return true; // dies before participating
                    }
                    let mut data = vec![1.0f32; 16];
                    let err = ring_all_reduce(&ep, &mut data, ReduceOp::Sum).unwrap_err();
                    matches!(
                        err,
                        CollectiveError::Timeout { .. } | CollectiveError::Disconnected { .. }
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn size_mismatch_is_detected() {
    // Ranks disagree about the buffer length: the ring detects the chunk
    // size mismatch instead of silently corrupting.
    let eps = LocalFabric::create(2);
    let results: Vec<Result<(), CollectiveError>> = std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                s.spawn(move || {
                    let len = if ep.rank() == 0 { 10 } else { 20 };
                    let mut data = vec![1.0f32; len];
                    ring_all_reduce(&ep, &mut data, ReduceOp::Sum)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        results
            .iter()
            .any(|r| matches!(r, Err(CollectiveError::SizeMismatch { .. }))),
        "no rank detected the size mismatch: {results:?}"
    );
}
