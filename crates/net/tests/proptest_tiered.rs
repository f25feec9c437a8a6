//! Property: the shared-memory fabric and the two-tier transport are
//! **bit-identical** to the in-process `LocalFabric` for every collective
//! algorithm and every wire dtype. Routing a message through a lock-free
//! ring (or splitting one collective's traffic across shm and TCP tiers
//! mid-algorithm) must be a pure transport concern — zero numerical
//! footprint, no reordering, no stray frames leaking into the next
//! collective.

use std::time::Duration;

use dear_collectives::{
    double_tree_all_reduce, hierarchical_all_reduce_on_wire, naive_all_reduce, rhd_all_reduce,
    ring_all_reduce_on_wire, ClusterShape, DType, HostMap, LocalFabric, Placement, ReduceOp,
    Transport,
};
use dear_net::{tiered_loopback_with, ShmFabric};
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

/// All five all-reduce families, back to back on the same endpoints: ring,
/// recursive halving-doubling, double binary tree, naive (reduce +
/// broadcast), and hierarchical over `placement`. Reusing one fabric across
/// all of them also proves no collective leaves stray frames behind.
fn all_five<T: Transport>(
    t: &T,
    placement: &Placement,
    d: usize,
    salt: u64,
    wire: DType,
) -> Vec<Vec<f32>> {
    let mut outs = Vec::new();
    let mut data = rank_data(t.rank(), d, salt);
    ring_all_reduce_on_wire(t, &mut data, ReduceOp::Sum, wire).unwrap();
    outs.push(data);
    let mut data = rank_data(t.rank(), d, salt);
    rhd_all_reduce(t, &mut data, ReduceOp::Sum, wire).unwrap();
    outs.push(data);
    let mut data = rank_data(t.rank(), d, salt);
    double_tree_all_reduce(t, &mut data, ReduceOp::Sum, wire).unwrap();
    outs.push(data);
    let mut data = rank_data(t.rank(), d, salt);
    naive_all_reduce(t, &mut data, ReduceOp::Sum, wire).unwrap();
    outs.push(data);
    let mut data = rank_data(t.rank(), d, salt);
    hierarchical_all_reduce_on_wire(t, placement, &mut data, ReduceOp::Sum, wire).unwrap();
    outs.push(data);
    outs
}

fn assert_bit_identical(
    local: &[Vec<Vec<f32>>],
    other: &[Vec<Vec<f32>>],
    transport: &str,
) -> Result<(), String> {
    for (rank, (l, o)) in local.iter().zip(other).enumerate() {
        for (algo, (lv, ov)) in l.iter().zip(o).enumerate() {
            prop_assert_eq!(lv.len(), ov.len());
            for (i, (a, b)) in lv.iter().zip(ov).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "rank {} algo {} elem {}: local {} != {} {}",
                    rank,
                    algo,
                    i,
                    a,
                    transport,
                    b
                );
            }
        }
    }
    Ok(())
}

proptest! {
    // Shm cases are cheap (no sockets); tiered cases build a real TCP
    // mesh per case, so keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn shm_is_bit_identical_to_local_fabric(
        world in 1usize..7,
        d in 0usize..300,
        salt in any::<u64>(),
        wire_idx in 0usize..3,
    ) {
        let wire = [DType::F32, DType::Bf16, DType::F16][wire_idx];
        let nodes = (2..=world).find(|n| world.is_multiple_of(*n)).unwrap_or(1);
        let placement = &Placement::from_shape(ClusterShape::new(nodes, world / nodes));
        let local = run_ranks(LocalFabric::create(world), |ep| {
            all_five(ep, placement, d, salt, wire)
        });
        let shm = run_ranks(ShmFabric::create(world), |ep| {
            all_five(ep, placement, d, salt, wire)
        });
        assert_bit_identical(&local, &shm, "shm")?;
    }

    #[test]
    fn tiered_is_bit_identical_to_local_fabric(
        hosts in 1usize..3,
        ranks_per_host in 1usize..3,
        d in 0usize..200,
        salt in any::<u64>(),
        wire_idx in 0usize..3,
    ) {
        // Every collective here spans both tiers at once: intra-host hops
        // ride the shm rings while inter-host hops ride real sockets, and
        // the result must still land bit-for-bit on LocalFabric's answer.
        // The hierarchical groups are the rendezvous' own host table, so
        // its intra-node rings are exactly the shm tier.
        let wire = [DType::F32, DType::Bf16, DType::F16][wire_idx];
        let tiered_eps = tiered_loopback_with(hosts, ranks_per_host, |mut cfg| {
            cfg.recv_timeout = Some(Duration::from_secs(60)); // hang guard
            cfg
        })
        .unwrap();
        let placement = &HostMap::new(tiered_eps[0].host_ids().to_vec()).placement().unwrap();
        prop_assert_eq!((placement.nodes(), placement.gpus_per_node()), (hosts, ranks_per_host));
        let local = run_ranks(LocalFabric::create(hosts * ranks_per_host), |ep| {
            all_five(ep, placement, d, salt, wire)
        });
        let tiered = run_ranks(tiered_eps, |ep| all_five(ep, placement, d, salt, wire));
        assert_bit_identical(&local, &tiered, "tiered")?;
    }
}
