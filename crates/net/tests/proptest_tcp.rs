//! Property: every collective over real TCP sockets is **bit-identical**
//! to the same collective over the in-process `LocalFabric`. The wire
//! (LE `f32` framing, per-peer ordering) must be a pure
//! transport concern — zero numerical footprint.

use std::time::Duration;

use dear_collectives::{
    hierarchical_all_reduce_on_wire, rhd_all_reduce, ring_all_reduce_on_wire, tree_broadcast,
    tree_reduce, ClusterShape, DType, LocalFabric, Placement, ReduceOp, Transport,
};
use dear_net::tcp_loopback_with;
use proptest::prelude::*;

/// Per-rank deterministic pseudo-random data, adversarial bit patterns
/// included via the salt multiply.
fn rank_data(rank: usize, d: usize, salt: u64) -> Vec<f32> {
    (0..d)
        .map(|i| {
            let x = (rank as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(salt | 1);
            ((x % 4096) as f32 - 2048.0) / 32.0
        })
        .collect()
}

/// Runs `f` on every rank of a fabric, one thread per rank.
fn run_ranks<T, R, F>(endpoints: Vec<T>, f: F) -> Vec<R>
where
    T: Transport + Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = endpoints.iter().map(|ep| s.spawn(|| f(ep))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Every supported all-reduce, over one fabric, back to back. Exercising
/// them all on the *same* endpoints also checks that no collective leaves
/// stray frames behind to corrupt the next one.
fn all_algorithms<T: Transport>(t: &T, d: usize, salt: u64, wire: DType) -> Vec<Vec<f32>> {
    let world = t.world_size();
    let mut outs = Vec::new();
    let mut data = rank_data(t.rank(), d, salt);
    ring_all_reduce_on_wire(t, &mut data, ReduceOp::Sum, wire).unwrap();
    outs.push(data);
    let mut data = rank_data(t.rank(), d, salt);
    rhd_all_reduce(t, &mut data, ReduceOp::Sum, wire).unwrap();
    outs.push(data);
    let mut data = rank_data(t.rank(), d, salt);
    tree_reduce(t, &mut data, 0, ReduceOp::Sum, wire).unwrap();
    tree_broadcast(t, &mut data, 0, wire).unwrap();
    outs.push(data);
    // Hierarchical needs a factorisation of the world; use the smallest
    // non-trivial node count so both the intra- and inter-node phases run.
    let nodes = (2..=world).find(|n| world.is_multiple_of(*n)).unwrap_or(1);
    let placement = Placement::from_shape(ClusterShape::new(nodes, world / nodes));
    let mut data = rank_data(t.rank(), d, salt);
    hierarchical_all_reduce_on_wire(t, &placement, &mut data, ReduceOp::Sum, wire).unwrap();
    outs.push(data);
    let mut data = rank_data(t.rank(), d, salt);
    ring_all_reduce_on_wire(t, &mut data, ReduceOp::Max, wire).unwrap();
    outs.push(data);
    outs
}

proptest! {
    // Each case sets up a real TCP mesh; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tcp_is_bit_identical_to_local_fabric(
        world in 1usize..6,
        d in 0usize..300,
        salt in any::<u64>(),
    ) {
        let wire = DType::F32;
        let local = run_ranks(LocalFabric::create(world), |ep| {
            all_algorithms(ep, d, salt, wire)
        });
        let tcp_eps = tcp_loopback_with(world, |mut cfg| {
            cfg.recv_timeout = Some(Duration::from_secs(60)); // hang guard
            cfg
        })
        .unwrap();
        let tcp = run_ranks(tcp_eps, |ep| all_algorithms(ep, d, salt, wire));
        // Bitwise equality, per rank, per algorithm, per element.
        for (rank, (l, t)) in local.iter().zip(&tcp).enumerate() {
            for (algo, (lv, tv)) in l.iter().zip(t).enumerate() {
                prop_assert_eq!(lv.len(), tv.len());
                for (i, (a, b)) in lv.iter().zip(tv).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "rank {} algo {} elem {}: local {} != tcp {}",
                        rank, algo, i, a, b
                    );
                }
            }
        }
    }

    #[test]
    fn tcp_is_bit_identical_to_local_fabric_on_narrow_wires(
        world in 1usize..5,
        d in 0usize..200,
        salt in any::<u64>(),
        wire_idx in 0usize..2,
    ) {
        // Same transport-transparency property on a lossy wire: the
        // rounding happens at the sender (before encoding), so a bf16/f16
        // payload over a real socket must still land bit-for-bit where the
        // in-process fabric lands it — the TCP frame is a pure carrier of
        // the narrow bytes.
        let wire = [DType::Bf16, DType::F16][wire_idx];
        let local = run_ranks(LocalFabric::create(world), |ep| {
            all_algorithms(ep, d, salt, wire)
        });
        let tcp_eps = tcp_loopback_with(world, |mut cfg| {
            cfg.recv_timeout = Some(Duration::from_secs(60)); // hang guard
            cfg
        })
        .unwrap();
        let tcp = run_ranks(tcp_eps, |ep| all_algorithms(ep, d, salt, wire));
        for (rank, (l, t)) in local.iter().zip(&tcp).enumerate() {
            for (algo, (lv, tv)) in l.iter().zip(t).enumerate() {
                prop_assert_eq!(lv.len(), tv.len());
                for (i, (a, b)) in lv.iter().zip(tv).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} wire, rank {} algo {} elem {}: local {} != tcp {}",
                        wire, rank, algo, i, a, b
                    );
                }
            }
        }
    }
}
