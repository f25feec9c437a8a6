//! The all-reduce runs that `dear-net`'s fabric tests compare bit for bit,
//! against `LocalFabric` or against a fresh world after a resize: one list,
//! shared by `transport_contract.rs` and `resize.rs`.

use dear_collectives::{
    double_tree_all_reduce, hierarchical_all_reduce_on_wire, naive_all_reduce, rhd_all_reduce,
    ring_all_reduce_on_wire, tree_broadcast, tree_reduce, ClusterShape, DType, Placement, ReduceOp,
    Transport,
};
use proptest::prelude::*;

/// Runs `f` on every endpoint, one thread each, results in endpoint order.
pub fn run<E: Transport + Sync, R: Send>(eps: &[E], f: impl Fn(&E) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = eps.iter().map(|ep| s.spawn(|| f(ep))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Per-rank pseudo-random data, keyed by the rank the endpoint holds now.
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

const FAMILIES: [&str; 7] = [
    "ring sum",
    "ring max",
    "rhd",
    "double tree",
    "naive",
    "tree reduce + broadcast at the last rank",
    "hierarchical",
];

/// Every all-reduce family, back to back on the same endpoints, so that no
/// collective can leave a stray message for the next. Naive reduces and
/// broadcasts at rank 0, the tree pair at the last rank; hierarchical runs
/// on the smallest non-trivial node count, so both of its phases run.
pub fn collectives<T: Transport>(t: &T, d: usize, salt: u64, wire: DType) -> Vec<Vec<f32>> {
    let n = t.world_size();
    let nodes = (2..=n).find(|k| n.is_multiple_of(*k)).unwrap_or(1);
    let placement = Placement::from_shape(ClusterShape::new(nodes, n / nodes));
    let sum = ReduceOp::Sum;
    FAMILIES
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let mut data = rank_data(t.rank(), d, salt);
            let x = &mut data[..];
            let done = match k {
                0 => ring_all_reduce_on_wire(t, x, sum, wire),
                1 => ring_all_reduce_on_wire(t, x, ReduceOp::Max, wire),
                2 => rhd_all_reduce(t, x, sum, wire),
                3 => double_tree_all_reduce(t, x, sum, wire),
                4 => naive_all_reduce(t, x, sum, wire),
                5 => tree_reduce(t, x, n - 1, sum, wire)
                    .and_then(|()| tree_broadcast(t, x, n - 1, wire)),
                _ => hierarchical_all_reduce_on_wire(t, &placement, x, sum, wire),
            };
            done.unwrap_or_else(|e| panic!("{name}: {e}"));
            data
        })
        .collect()
}

/// Rank by rank and family by family, `got` matches `want` bit for bit
/// (element `r` of each is rank `r`'s results).
pub fn bit_identical(want: &[Vec<Vec<f32>>], got: &[Vec<Vec<f32>>]) -> Result<(), String> {
    prop_assert_eq!(want.len(), got.len());
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (rank, (w, g)) in want.iter().zip(got).enumerate() {
        for ((w, g), name) in w.iter().zip(g).zip(FAMILIES) {
            prop_assert_eq!(bits(w), bits(g), "rank {} {}", rank, name);
        }
    }
    Ok(())
}
