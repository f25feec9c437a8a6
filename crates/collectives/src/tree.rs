//! Tree-based collectives: binomial-tree reduce/broadcast and the
//! double-binary-tree all-reduce (Sanders, Speck & Träff) that NCCL uses at
//! large scale.
//!
//! §VII-A of the DeAR paper notes the double-binary-tree all-reduce also
//! decouples into a tree-reduce followed by a tree-broadcast, so DeAR's
//! BackPipe/FeedPipe split applies to it unchanged; these implementations
//! demonstrate that.

use crate::error::CollectiveError;
use crate::reduce::ReduceOp;
use crate::segment::{recv_segmented_copy, recv_segmented_reduce, send_segmented, SegmentConfig};
use crate::transport::Transport;

/// Binomial-tree reduce: after the call, `root` holds the element-wise
/// reduction of `data` across all ranks; other ranks' buffers are unchanged
/// except having been read. Each hop's message is split per `seg`
/// (bit-identical for any `seg`).
///
/// # Errors
///
/// Propagates transport errors; returns [`CollectiveError::SizeMismatch`]
/// if peers disagree on buffer length, and
/// [`CollectiveError::InvalidRank`] if `root` is out of range.
pub fn tree_reduce_seg<T: Transport>(
    t: &T,
    data: &mut [f32],
    root: usize,
    op: ReduceOp,
    seg: SegmentConfig,
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
    let mut mask = 1usize;
    while mask < world {
        if vrank & mask != 0 {
            // Send accumulated data to the parent and exit.
            let parent = ((vrank ^ mask) + root) % world;
            send_segmented(t, parent, data, seg)?;
            return Ok(());
        }
        let vchild = vrank | mask;
        if vchild < world {
            let child = (vchild + root) % world;
            recv_segmented_reduce(t, child, data, op, seg)?;
        }
        mask <<= 1;
    }
    Ok(())
}

/// Binomial-tree broadcast from `root`: after the call every rank's `data`
/// equals `root`'s. Each hop's message is split per `seg` (bit-identical
/// for any `seg`).
///
/// # Errors
///
/// Propagates transport errors; returns [`CollectiveError::SizeMismatch`]
/// if peers disagree on buffer length, and
/// [`CollectiveError::InvalidRank`] if `root` is out of range.
pub fn tree_broadcast_seg<T: Transport>(
    t: &T,
    data: &mut [f32],
    root: usize,
    seg: SegmentConfig,
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
    // Receive once from parent (the lowest set bit of vrank).
    if vrank != 0 {
        let parent_mask = vrank & vrank.wrapping_neg(); // lowest set bit
        let parent = ((vrank ^ parent_mask) + root) % world;
        recv_segmented_copy(t, parent, data, seg)?;
        // Only forward along masks below our own bit.
        mask = parent_mask >> 1;
    }
    while mask > 0 {
        let vchild = vrank | mask;
        if vchild != vrank && vchild < world {
            let child = (vchild + root) % world;
            send_segmented(t, child, data, seg)?;
        }
        mask >>= 1;
    }
    Ok(())
}

/// Naive all-reduce: [`tree_reduce_seg`] to rank 0 followed by
/// [`tree_broadcast_seg`] from rank 0. Used as a latency-optimal baseline
/// for tiny messages and as a correctness cross-check.
///
/// # Errors
///
/// Propagates errors from the two phases.
pub fn naive_all_reduce_seg<T: Transport>(
    t: &T,
    data: &mut [f32],
    op: ReduceOp,
    seg: SegmentConfig,
) -> Result<(), CollectiveError> {
    tree_reduce_seg(t, data, 0, op, seg)?;
    tree_broadcast_seg(t, data, 0, seg)
}

/// Double-binary-tree all-reduce: the message is split in half; each half is
/// reduced-then-broadcast over one of two complementary binomial trees
/// (tree B is tree A mirrored through `world−1−rank`), so both halves move
/// concurrently and every rank does useful work in both trees.
///
/// The decoupled phases are exposed separately as
/// [`double_tree_reduce_phase_seg`] and [`double_tree_broadcast_phase_seg`],
/// which is exactly the OP1/OP2 split DeAR's §VII-A describes for this
/// algorithm. Each hop's message is split per `seg`.
///
/// # Errors
///
/// Propagates errors from the phases.
pub fn double_tree_all_reduce_seg<T: Transport>(
    t: &T,
    data: &mut [f32],
    op: ReduceOp,
    seg: SegmentConfig,
) -> Result<(), CollectiveError> {
    double_tree_reduce_phase_seg(t, data, op, seg)?;
    double_tree_broadcast_phase_seg(t, data, seg)
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
pub fn double_tree_reduce_phase_seg<T: Transport>(
    t: &T,
    data: &mut [f32],
    op: ReduceOp,
    seg: SegmentConfig,
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
    tree_reduce_seg(t, lo, root_a, op, seg)?;
    tree_reduce_seg(t, hi, root_b, op, seg)?;
    Ok(())
}

/// OP2 of the double-binary-tree all-reduce: broadcast each reduced half
/// from its tree's root.
///
/// # Errors
///
/// Propagates transport errors.
pub fn double_tree_broadcast_phase_seg<T: Transport>(
    t: &T,
    data: &mut [f32],
    seg: SegmentConfig,
) -> Result<(), CollectiveError> {
    let world = t.world_size();
    if world == 1 {
        return Ok(());
    }
    let (root_a, root_b) = double_tree_roots(world);
    let mid = data.len() / 2;
    let (lo, hi) = data.split_at_mut(mid);
    tree_broadcast_seg(t, lo, root_a, seg)?;
    tree_broadcast_seg(t, hi, root_b, seg)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::run_cluster;

    const MONO: SegmentConfig = SegmentConfig::MONOLITHIC;

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
                    tree_reduce_seg(&ep, &mut data, root, ReduceOp::Sum, MONO).unwrap();
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
                    tree_broadcast_seg(&ep, &mut data, root, MONO).unwrap();
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
                naive_all_reduce_seg(&ep, &mut data, ReduceOp::Sum, MONO).unwrap();
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
                    double_tree_all_reduce_seg(&ep, &mut data, ReduceOp::Sum, MONO).unwrap();
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
            double_tree_reduce_phase_seg(&ep, &mut data, ReduceOp::Sum, MONO).unwrap();
            double_tree_broadcast_phase_seg(&ep, &mut data, MONO).unwrap();
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
            tree_reduce_seg(&ep, &mut data, 9, ReduceOp::Sum, MONO).unwrap_err()
        });
        for err in results {
            assert!(matches!(err, CollectiveError::InvalidRank { rank: 9, .. }));
        }
    }
}
