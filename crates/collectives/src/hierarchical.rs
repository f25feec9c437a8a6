//! Hierarchical (2-level) ring all-reduce for dense-GPU clusters
//! (Mikami et al.; "hierarchical ring" in the paper's §VII-A).
//!
//! The cluster is `nodes × gpus_per_node`; rank `r` lives on node
//! `r / gpus_per_node` with local index `r % gpus_per_node`. The all-reduce
//! runs as: intra-node ring reduce-scatter → inter-node ring all-reduce over
//! the scattered shard → intra-node ring all-gather. As §VII-A notes, this
//! algorithm also decouples into DeAR's OP1 (intra RS + inter RS) and OP2
//! (inter AG + intra AG) without extra communication.

use std::sync::Arc;

use crate::error::CollectiveError;
use crate::reduce::ReduceOp;
use crate::ring::{
    ring_all_gather_on_wire, ring_all_reduce_on_wire, ring_owned_chunk, ring_reduce_scatter_on_wire,
};
use crate::topology::Placement;
use crate::transport::{GroupTransport, Transport};
use crate::wire::DType;

/// Shape of a two-level cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterShape {
    /// Number of nodes.
    pub nodes: usize,
    /// Workers per node.
    pub gpus_per_node: usize,
}

impl ClusterShape {
    /// Creates a shape; `world()` is `nodes * gpus_per_node`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(nodes: usize, gpus_per_node: usize) -> Self {
        assert!(
            nodes > 0 && gpus_per_node > 0,
            "cluster dims must be positive"
        );
        ClusterShape {
            nodes,
            gpus_per_node,
        }
    }

    /// Validated shape for `world` ranks in nodes of `gpus_per_node`: the
    /// checked replacement for the silent `world / nodes` division at call
    /// sites (which truncates when the group size does not divide the
    /// world and then fails later as a rank-arithmetic panic).
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::UnevenGroups`] unless `gpus_per_node`
    /// divides a positive `world`.
    pub fn for_world(world: usize, gpus_per_node: usize) -> Result<Self, CollectiveError> {
        if world == 0 || gpus_per_node == 0 || !world.is_multiple_of(gpus_per_node) {
            return Err(CollectiveError::UnevenGroups {
                world,
                group_len: gpus_per_node,
            });
        }
        Ok(ClusterShape::new(world / gpus_per_node, gpus_per_node))
    }

    /// Total worker count.
    #[must_use]
    pub fn world(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Global ranks sharing the node of global rank `r`.
    #[must_use]
    pub fn node_group(&self, r: usize) -> Vec<usize> {
        let node = r / self.gpus_per_node;
        (0..self.gpus_per_node)
            .map(|i| node * self.gpus_per_node + i)
            .collect()
    }

    /// Global ranks sharing the local index of global rank `r` across nodes
    /// (the inter-node ring this rank participates in).
    #[must_use]
    pub fn cross_group(&self, r: usize) -> Vec<usize> {
        let local = r % self.gpus_per_node;
        (0..self.nodes)
            .map(|n| n * self.gpus_per_node + local)
            .collect()
    }
}

/// Hierarchical ring all-reduce over `data`, in place, on the contiguous
/// `nodes × gpus_per_node` rank blocks of `shape`:
/// [`hierarchical_all_reduce_on_wire`] over [`Placement::from_shape`], on
/// the `f32` wire.
///
/// # Errors
///
/// As [`hierarchical_all_reduce_on_wire`].
pub fn hierarchical_all_reduce<T: Transport>(
    t: &T,
    shape: ClusterShape,
    data: &mut [f32],
    op: ReduceOp,
) -> Result<(), CollectiveError> {
    let placement = Placement::from_shape(shape);
    hierarchical_all_reduce_on_wire(t, &placement, data, op, DType::F32)
}

/// Hierarchical ring all-reduce over `data`, in place, every ring phase on
/// the `wire` dtype. The intra-node ring is the set of ranks `placement`
/// says share a host: contiguous rank blocks under
/// [`Placement::from_shape`], the ranks that actually do under a placement
/// derived from a real [`HostMap`](crate::HostMap) — the intra phases then
/// stay on the fast intra-host tier whatever the rank numbering.
///
/// # Errors
///
/// Propagates transport errors; returns
/// [`CollectiveError::UnsupportedWorld`] if the transport's world size does
/// not match the placement's.
pub fn hierarchical_all_reduce_on_wire<T: Transport>(
    t: &T,
    placement: &Placement,
    data: &mut [f32],
    op: ReduceOp,
    wire: DType,
) -> Result<(), CollectiveError> {
    check_placement(t, placement)?;
    let intra = intra_group(t, placement);
    let owned = ring_reduce_scatter_on_wire(&intra, data, op, wire)?;
    if let Some(cross) = cross_group(t, placement) {
        let mut shard = data[owned.clone()].to_vec();
        ring_all_reduce_on_wire(&cross, &mut shard, op, wire)?;
        data[owned].copy_from_slice(&shard);
    }
    let owned_chunk = ring_owned_chunk(intra.rank(), placement.gpus_per_node());
    ring_all_gather_on_wire(&intra, data, owned_chunk, wire)
}

fn check_placement<T: Transport>(t: &T, placement: &Placement) -> Result<(), CollectiveError> {
    if t.world_size() != placement.world() {
        return Err(CollectiveError::UnsupportedWorld {
            world: t.world_size(),
            requirement: "world == nodes * gpus_per_node",
        });
    }
    Ok(())
}

/// The ring of ranks sharing this rank's host.
fn intra_group<'a, T: Transport>(t: &'a T, placement: &Placement) -> GroupTransport<'a, T> {
    let members = Arc::new(placement.node_group(t.rank()).to_vec());
    GroupTransport::new(t, members).expect("rank is in its own node group")
}

/// The inter-node ring this rank takes part in; `None` on a single node.
fn cross_group<'a, T: Transport>(t: &'a T, placement: &Placement) -> Option<GroupTransport<'a, T>> {
    (placement.nodes() > 1).then(|| {
        let members = Arc::new(placement.cross_group(t.rank()));
        GroupTransport::new(t, members).expect("rank is in its own cross group")
    })
}

/// Bookkeeping carried between the two decoupled phases of the
/// hierarchical all-reduce (see [`hierarchical_reduce_scatter_phase`]).
#[derive(Debug, Clone)]
pub struct HierarchicalShard {
    /// Element range of `data` this rank owns after the intra-node
    /// reduce-scatter.
    intra_owned: std::ops::Range<usize>,
    /// The shard buffer after the inter-node reduce-scatter; its
    /// [`ring_owned_chunk`] chunk is fully reduced.
    shard: Vec<f32>,
}

/// OP1 of the hierarchical all-reduce (§VII-A): intra-node ring
/// reduce-scatter followed by an **inter-node ring reduce-scatter** over
/// the owned shard. Overlappable with backpropagation exactly like the
/// flat ring's OP1.
///
/// Pass the returned [`HierarchicalShard`] to
/// [`hierarchical_all_gather_phase`]; `data`'s non-owned chunks must be
/// treated as garbage in between.
///
/// # Errors
///
/// As [`hierarchical_all_reduce_on_wire`].
pub fn hierarchical_reduce_scatter_phase<T: Transport>(
    t: &T,
    placement: &Placement,
    data: &mut [f32],
    op: ReduceOp,
    wire: DType,
) -> Result<HierarchicalShard, CollectiveError> {
    check_placement(t, placement)?;
    let intra_owned = ring_reduce_scatter_on_wire(&intra_group(t, placement), data, op, wire)?;
    let mut shard = data[intra_owned.clone()].to_vec();
    if let Some(cross) = cross_group(t, placement) {
        ring_reduce_scatter_on_wire(&cross, &mut shard, op, wire)?;
    }
    Ok(HierarchicalShard { intra_owned, shard })
}

/// OP2 of the hierarchical all-reduce: inter-node ring all-gather of the
/// shard, then intra-node ring all-gather of `data`. Overlappable with the
/// next iteration's feed-forward exactly like the flat ring's OP2.
///
/// # Errors
///
/// As [`hierarchical_all_reduce_on_wire`].
pub fn hierarchical_all_gather_phase<T: Transport>(
    t: &T,
    placement: &Placement,
    data: &mut [f32],
    mut carry: HierarchicalShard,
    wire: DType,
) -> Result<(), CollectiveError> {
    check_placement(t, placement)?;
    if let Some(cross) = cross_group(t, placement) {
        let owned_chunk = ring_owned_chunk(cross.rank(), placement.nodes());
        ring_all_gather_on_wire(&cross, &mut carry.shard, owned_chunk, wire)?;
    }
    data[carry.intra_owned].copy_from_slice(&carry.shard);
    let intra = intra_group(t, placement);
    let owned_chunk = ring_owned_chunk(intra.rank(), placement.gpus_per_node());
    ring_all_gather_on_wire(&intra, data, owned_chunk, wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::run_cluster;

    fn rank_data(rank: usize, d: usize) -> Vec<f32> {
        (0..d).map(|i| (rank * d + i) as f32).collect()
    }

    fn expected_sum(world: usize, d: usize) -> Vec<f32> {
        (0..d)
            .map(|i| (0..world).map(|r| (r * d + i) as f32).sum())
            .collect()
    }

    #[test]
    fn matches_flat_sum_on_various_shapes() {
        for (nodes, g) in [(1, 4), (2, 2), (4, 2), (2, 3), (3, 4)] {
            let shape = ClusterShape::new(nodes, g);
            let world = shape.world();
            for d in [1, 16, 37] {
                let expect = expected_sum(world, d);
                let results = run_cluster(world, |ep| {
                    let mut data = rank_data(ep.rank(), d);
                    hierarchical_all_reduce(&ep, shape, &mut data, ReduceOp::Sum).unwrap();
                    data
                });
                for (rank, data) in results.into_iter().enumerate() {
                    assert_eq!(data, expect, "{nodes}x{g} d={d} rank {rank}");
                }
            }
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let results = run_cluster(4, |ep| {
            let mut data = vec![0.0];
            hierarchical_all_reduce(&ep, ClusterShape::new(3, 2), &mut data, ReduceOp::Sum)
                .unwrap_err()
        });
        for err in results {
            assert!(matches!(
                err,
                CollectiveError::UnsupportedWorld { world: 4, .. }
            ));
        }
    }

    #[test]
    fn groups_are_consistent() {
        let shape = ClusterShape::new(2, 4);
        assert_eq!(shape.node_group(5), vec![4, 5, 6, 7]);
        assert_eq!(shape.cross_group(5), vec![1, 5]);
        assert_eq!(shape.world(), 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_panic() {
        let _ = ClusterShape::new(0, 4);
    }

    const F32: DType = DType::F32;

    #[test]
    fn decoupled_phases_compose_to_hierarchical_all_reduce() {
        for (nodes, g) in [(1, 3), (2, 2), (3, 4)] {
            let placement = Placement::from_shape(ClusterShape::new(nodes, g));
            let world = placement.world();
            let d = 29;
            let expect = expected_sum(world, d);
            let results = run_cluster(world, |ep| {
                let mut data = rank_data(ep.rank(), d);
                let op = ReduceOp::Sum;
                let carry =
                    hierarchical_reduce_scatter_phase(&ep, &placement, &mut data, op, F32).unwrap();
                // ... in DeAR, backprop of earlier layers and the next
                // iteration's feed-forward happen between the phases ...
                hierarchical_all_gather_phase(&ep, &placement, &mut data, carry, F32).unwrap();
                data
            });
            for (rank, data) in results.into_iter().enumerate() {
                assert_eq!(data, expect, "{nodes}x{g} rank {rank}");
            }
        }
    }

    #[test]
    fn placed_interleaved_hosts_match_flat_sum() {
        // Ranks alternate between two hosts (A, B, A, B, A, B): a
        // contiguous-blocks shape would put 0 and 1 in one "node", but the
        // placement groups by actual locality — and the result is still the
        // exact flat sum on every rank.
        use crate::topology::HostMap;
        let map = HostMap::new(vec![7, 9, 7, 9, 7, 9]);
        let placement = map.placement().unwrap();
        let world = placement.world();
        for d in [1, 16, 37] {
            let expect = expected_sum(world, d);
            let placement = placement.clone();
            let results = run_cluster(world, move |ep| {
                let mut data = rank_data(ep.rank(), d);
                hierarchical_all_reduce_on_wire(&ep, &placement, &mut data, ReduceOp::Sum, F32)
                    .unwrap();
                data
            });
            for (rank, data) in results.into_iter().enumerate() {
                assert_eq!(data, expect, "d={d} rank {rank}");
            }
        }
    }

    #[test]
    fn placed_phases_compose_on_interleaved_hosts() {
        use crate::topology::HostMap;
        let map = HostMap::new(vec![1, 2, 3, 1, 2, 3]);
        let placement = map.placement().unwrap();
        let world = placement.world();
        let d = 29;
        let expect = expected_sum(world, d);
        let results = run_cluster(world, move |ep| {
            let mut data = rank_data(ep.rank(), d);
            let op = ReduceOp::Sum;
            let carry =
                hierarchical_reduce_scatter_phase(&ep, &placement, &mut data, op, F32).unwrap();
            hierarchical_all_gather_phase(&ep, &placement, &mut data, carry, F32).unwrap();
            data
        });
        for (rank, data) in results.into_iter().enumerate() {
            assert_eq!(data, expect, "rank {rank}");
        }
    }

    #[test]
    fn for_world_validates_divisibility() {
        assert_eq!(ClusterShape::for_world(8, 4), Ok(ClusterShape::new(2, 4)));
        assert!(matches!(
            ClusterShape::for_world(6, 4),
            Err(CollectiveError::UnevenGroups {
                world: 6,
                group_len: 4,
            })
        ));
        assert!(ClusterShape::for_world(0, 4).is_err());
        assert!(ClusterShape::for_world(4, 0).is_err());
    }

    #[test]
    fn phase_one_owned_shard_is_fully_reduced() {
        let shape = ClusterShape::new(2, 2);
        let world = shape.world();
        let d = 16;
        let expect = expected_sum(world, d);
        let results = run_cluster(world, |ep| {
            let mut data = rank_data(ep.rank(), d);
            let placement = Placement::from_shape(shape);
            let carry =
                hierarchical_reduce_scatter_phase(&ep, &placement, &mut data, ReduceOp::Sum, F32)
                    .unwrap();
            (ep.rank(), carry)
        });
        for (rank, carry) in results {
            // The fully reduced region is the cross-ring owned chunk of the
            // shard.
            let cross_rank = rank / shape.gpus_per_node;
            let owned = crate::chunk::chunk_range(
                carry.shard.len(),
                shape.nodes,
                ring_owned_chunk(cross_rank, shape.nodes),
            );
            let base = carry.intra_owned.start;
            for i in owned {
                assert_eq!(carry.shard[i], expect[base + i], "rank {rank} elem {i}");
            }
        }
    }
}
