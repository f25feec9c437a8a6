//! Tree-based collectives: binomial-tree reduce/broadcast and the
//! double-binary-tree all-reduce (Sanders, Speck & Träff) that NCCL uses at
//! large scale.
//!
//! §VII-A of the DeAR paper notes the double-binary-tree all-reduce also
//! decouples into a tree-reduce followed by a tree-broadcast, so DeAR's
//! BackPipe/FeedPipe split applies to it unchanged; these implementations
//! demonstrate that.

use crate::error::CollectiveError;
use crate::hop::{recv_hop, send_hop, Chunks, Loans};
use crate::reduce::ReduceOp;
use crate::transport::Transport;
use crate::wire::DType;

/// Binomial-tree reduce on the `wire` dtype: after the call, `root` holds
/// the element-wise reduction of `data` across all ranks, and other ranks
/// hold partial sums. An interior rank of the tree has accumulated its
/// children into `data` before sending it on, and on a narrow `wire` every
/// sender has rounded its `data` in place to the values it shipped.
///
/// # Errors
///
/// Propagates transport errors; returns [`CollectiveError::SizeMismatch`]
/// if peers disagree on buffer length, and
/// [`CollectiveError::InvalidRank`] if `root` is out of range.
pub fn tree_reduce<T: Transport>(
    t: &T,
    data: &mut [f32],
    root: usize,
    op: ReduceOp,
    wire: DType,
) -> Result<(), CollectiveError> {
    let world = t.world_size();
    if root >= world {
        return Err(CollectiveError::InvalidRank { rank: root, world });
    }
    if world == 1 {
        return Ok(());
    }
    // Re-root the binomial tree by rotating ranks so `root` maps to 0.
    let vrank = (t.rank() + world - root) % world;
    let (buf, all) = (Chunks::of(data), 0..data.len());
    let mut loans = Loans::default();
    let mut mask = 1usize;
    while mask < world {
        if vrank & mask != 0 {
            // Send accumulated data to the parent and exit.
            let parent = ((vrank ^ mask) + root) % world;
            // SAFETY: `data` is borrowed for the call, and the loan is
            // settled (or dropped) before it returns.
            unsafe { send_hop(t, parent, buf, all, wire, &mut loans)? };
            return loans.settle();
        }
        let vchild = vrank | mask;
        if vchild < world {
            let child = (vchild + root) % world;
            // SAFETY: `data` is borrowed for the call; nothing is lent yet.
            unsafe {
                recv_hop(
                    t,
                    child,
                    buf,
                    all.clone(),
                    Some(op),
                    &mut (),
                    &mut loans,
                    true,
                )?
            };
        }
        mask <<= 1;
    }
    Ok(())
}

/// Binomial-tree broadcast from `root` on the `wire` dtype: after the call
/// every rank's `data` equals `root`'s. On a narrow `wire` the root first
/// rounds its `data` in place to the values it ships, so every rank holds
/// the same bits.
///
/// # Errors
///
/// Propagates transport errors; returns [`CollectiveError::SizeMismatch`]
/// if peers disagree on buffer length, and
/// [`CollectiveError::InvalidRank`] if `root` is out of range.
pub fn tree_broadcast<T: Transport>(
    t: &T,
    data: &mut [f32],
    root: usize,
    wire: DType,
) -> Result<(), CollectiveError> {
    let world = t.world_size();
    if root >= world {
        return Err(CollectiveError::InvalidRank { rank: root, world });
    }
    if world == 1 {
        return Ok(());
    }
    let vrank = (t.rank() + world - root) % world;
    // Find the highest bit of the receive mask: receive first (unless root),
    // then forward to children in decreasing mask order (mirror of reduce).
    let mut mask = 1usize;
    while mask < world {
        mask <<= 1;
    }
    mask >>= 1;
    let (buf, all) = (Chunks::of(data), 0..data.len());
    let mut loans = Loans::default();
    // Receive once from parent (the lowest set bit of vrank).
    if vrank != 0 {
        let parent_mask = vrank & vrank.wrapping_neg(); // lowest set bit
        let parent = ((vrank ^ parent_mask) + root) % world;
        // SAFETY: `data` is borrowed for the call; nothing is lent yet.
        unsafe { recv_hop(t, parent, buf, all.clone(), None, &mut (), &mut loans, true)? };
        // Only forward along masks below our own bit.
        mask = parent_mask >> 1;
    }
    while mask > 0 {
        let vchild = vrank | mask;
        if vchild != vrank && vchild < world {
            let child = (vchild + root) % world;
            // SAFETY: `data` is borrowed for the call and only read from
            // here on; the loans are settled (or dropped) before it returns.
            unsafe { send_hop(t, child, buf, all.clone(), wire, &mut loans)? };
        }
        mask >>= 1;
    }
    loans.settle()
}

/// Naive all-reduce: [`tree_reduce`] to rank 0 followed by
/// [`tree_broadcast`] from rank 0. Used as a latency-optimal baseline
/// for tiny messages and as a correctness cross-check.
///
/// # Errors
///
/// Propagates errors from the two phases.
pub fn naive_all_reduce<T: Transport>(
    t: &T,
    data: &mut [f32],
    op: ReduceOp,
    wire: DType,
) -> Result<(), CollectiveError> {
    tree_reduce(t, data, 0, op, wire)?;
    tree_broadcast(t, data, 0, wire)
}

/// Double-binary-tree all-reduce: the message is split in half; each half is
/// reduced-then-broadcast over one of two complementary binomial trees
/// (tree B is tree A mirrored through `world−1−rank`), so both halves move
/// concurrently and every rank does useful work in both trees.
///
/// The decoupled phases are exposed separately as
/// [`double_tree_reduce_phase`] and [`double_tree_broadcast_phase`],
/// which is exactly the OP1/OP2 split DeAR's §VII-A describes for this
/// algorithm.
///
/// # Errors
///
/// Propagates errors from the phases.
pub fn double_tree_all_reduce<T: Transport>(
    t: &T,
    data: &mut [f32],
    op: ReduceOp,
    wire: DType,
) -> Result<(), CollectiveError> {
    double_tree_reduce_phase(t, data, op, wire)?;
    double_tree_broadcast_phase(t, data, wire)
}

/// Roots used by the two complementary trees.
fn double_tree_roots(world: usize) -> (usize, usize) {
    (0, world - 1)
}

/// OP1 of the double-binary-tree all-reduce: reduce each half of `data` to
/// its tree's root.
///
/// After this phase, the first half is fully reduced on rank 0 and the
/// second half on rank `world−1`; other ranks hold partial sums.
///
/// # Errors
///
/// Propagates transport errors.
pub fn double_tree_reduce_phase<T: Transport>(
    t: &T,
    data: &mut [f32],
    op: ReduceOp,
    wire: DType,
) -> Result<(), CollectiveError> {
    let world = t.world_size();
    if world == 1 {
        return Ok(());
    }
    let (root_a, root_b) = double_tree_roots(world);
    let mid = data.len() / 2;
    let (lo, hi) = data.split_at_mut(mid);
    // Tree A reduces the low half rooted at 0; tree B (mirrored ranks)
    // reduces the high half rooted at world-1. Mirroring is achieved by
    // re-rooting the same binomial tree, which yields a different topology
    // and spreads load.
    tree_reduce(t, lo, root_a, op, wire)?;
    tree_reduce(t, hi, root_b, op, wire)?;
    Ok(())
}

/// OP2 of the double-binary-tree all-reduce: broadcast each reduced half
/// from its tree's root.
///
/// # Errors
///
/// Propagates transport errors.
pub fn double_tree_broadcast_phase<T: Transport>(
    t: &T,
    data: &mut [f32],
    wire: DType,
) -> Result<(), CollectiveError> {
    let world = t.world_size();
    if world == 1 {
        return Ok(());
    }
    let (root_a, root_b) = double_tree_roots(world);
    let mid = data.len() / 2;
    let (lo, hi) = data.split_at_mut(mid);
    tree_broadcast(t, lo, root_a, wire)?;
    tree_broadcast(t, hi, root_b, wire)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::run_cluster;

    const F32: DType = DType::F32;

    fn rank_data(rank: usize, d: usize) -> Vec<f32> {
        (0..d).map(|i| (rank * d + i) as f32).collect()
    }

    fn expected_sum(world: usize, d: usize) -> Vec<f32> {
        (0..d)
            .map(|i| (0..world).map(|r| (r * d + i) as f32).sum())
            .collect()
    }

    #[test]
    fn tree_reduce_collects_at_root() {
        for world in [1, 2, 3, 4, 5, 8] {
            for root in 0..world {
                let d = 11;
                let expect = expected_sum(world, d);
                let results = run_cluster(world, |ep| {
                    let mut data = rank_data(ep.rank(), d);
                    tree_reduce(&ep, &mut data, root, ReduceOp::Sum, F32).unwrap();
                    (ep.rank(), data)
                });
                for (rank, data) in results {
                    if rank == root {
                        assert_eq!(data, expect, "world {world} root {root}");
                    }
                }
            }
        }
    }

    #[test]
    fn tree_broadcast_distributes_from_root() {
        for world in [1, 2, 3, 6, 8] {
            for root in 0..world {
                let d = 5;
                let results = run_cluster(world, |ep| {
                    let mut data = if ep.rank() == root {
                        vec![42.0; d]
                    } else {
                        vec![0.0; d]
                    };
                    tree_broadcast(&ep, &mut data, root, F32).unwrap();
                    data
                });
                for data in results {
                    assert_eq!(data, vec![42.0; d], "world {world} root {root}");
                }
            }
        }
    }

    #[test]
    fn naive_all_reduce_matches_sum() {
        for world in [1, 2, 4, 7] {
            let d = 13;
            let expect = expected_sum(world, d);
            let results = run_cluster(world, |ep| {
                let mut data = rank_data(ep.rank(), d);
                naive_all_reduce(&ep, &mut data, ReduceOp::Sum, F32).unwrap();
                data
            });
            for data in results {
                assert_eq!(data, expect);
            }
        }
    }

    #[test]
    fn double_tree_all_reduce_matches_sum() {
        for world in [1, 2, 3, 4, 8] {
            for d in [0, 1, 2, 13, 64] {
                let expect = expected_sum(world, d);
                let results = run_cluster(world, |ep| {
                    let mut data = rank_data(ep.rank(), d);
                    double_tree_all_reduce(&ep, &mut data, ReduceOp::Sum, F32).unwrap();
                    data
                });
                for data in results {
                    assert_eq!(data, expect, "world {world} d {d}");
                }
            }
        }
    }

    #[test]
    fn double_tree_decoupled_phases_compose() {
        let world = 6;
        let d = 20;
        let expect = expected_sum(world, d);
        let results = run_cluster(world, |ep| {
            let mut data = rank_data(ep.rank(), d);
            double_tree_reduce_phase(&ep, &mut data, ReduceOp::Sum, F32).unwrap();
            double_tree_broadcast_phase(&ep, &mut data, F32).unwrap();
            data
        });
        for data in results {
            assert_eq!(data, expect);
        }
    }

    #[test]
    fn invalid_root_is_rejected() {
        let results = run_cluster(2, |ep| {
            let mut data = vec![0.0];
            tree_reduce(&ep, &mut data, 9, ReduceOp::Sum, F32).unwrap_err()
        });
        for err in results {
            assert!(matches!(err, CollectiveError::InvalidRank { rank: 9, .. }));
        }
    }
}
