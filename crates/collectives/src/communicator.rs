//! High-level communicator API: algorithm selection, convenience wrappers,
//! and the `run_cluster` harness that spawns one thread per rank.

use crate::error::CollectiveError;
use crate::hierarchical::{hierarchical_all_reduce_seg, ClusterShape};
use crate::reduce::ReduceOp;
use crate::rhd::rhd_all_reduce_seg;
use crate::ring::{
    ring_all_gather_seg, ring_all_reduce_seg, ring_owned_chunk, ring_reduce_scatter_seg,
};
use crate::segment::SegmentConfig;
use crate::topology::Placement;
use crate::transport::{LocalEndpoint, LocalFabric, Transport};
use crate::tree::{
    double_tree_all_reduce_seg, naive_all_reduce_seg, tree_broadcast_seg, tree_reduce_seg,
};

use serde::{Deserialize, Serialize};

/// Selects an all-reduce implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AllReduceAlgorithm {
    /// Ring reduce-scatter + ring all-gather (NCCL default; the paper's
    /// running example).
    #[default]
    Ring,
    /// Recursive halving-doubling (Rabenseifner).
    RecursiveHalvingDoubling,
    /// Double binary tree (NCCL at scale).
    DoubleBinaryTree,
    /// Binomial tree reduce + broadcast (latency baseline).
    NaiveTree,
}

/// A communicator: one rank's handle for running collectives.
///
/// # Examples
///
/// ```
/// use dear_collectives::{run_cluster, ReduceOp};
///
/// let results = run_cluster(4, |comm| {
///     let mut grad = vec![comm.rank() as f32; 8];
///     comm.all_reduce(&mut grad, ReduceOp::Sum).unwrap();
///     grad[0]
/// });
/// assert_eq!(results, vec![6.0; 4]); // 0+1+2+3
/// ```
#[derive(Debug)]
pub struct Communicator<T> {
    transport: T,
    algorithm: AllReduceAlgorithm,
    segments: SegmentConfig,
}

impl<T: Transport> Communicator<T> {
    /// Wraps `transport` with the default (ring) algorithm and monolithic
    /// (unsegmented) messages.
    #[must_use]
    pub fn new(transport: T) -> Self {
        Communicator::with_algorithm(transport, AllReduceAlgorithm::Ring)
    }

    /// Wraps `transport` selecting `algorithm` for all-reduce.
    #[must_use]
    pub fn with_algorithm(transport: T, algorithm: AllReduceAlgorithm) -> Self {
        Communicator {
            transport,
            algorithm,
            segments: SegmentConfig::MONOLITHIC,
        }
    }

    /// Sets the segment-pipelining config used by every collective on this
    /// communicator (see [`SegmentConfig`]). Results are bit-identical for
    /// any setting; only the timing changes.
    #[must_use]
    pub fn with_segments(mut self, segments: SegmentConfig) -> Self {
        self.segments = segments;
        self
    }

    /// The segment-pipelining config in effect.
    #[must_use]
    pub fn segments(&self) -> SegmentConfig {
        self.segments
    }

    /// This rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// World size.
    #[must_use]
    pub fn world_size(&self) -> usize {
        self.transport.world_size()
    }

    /// The wrapped transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// All-reduce `data` in place with the configured algorithm.
    ///
    /// # Errors
    ///
    /// Propagates algorithm and transport errors.
    pub fn all_reduce(&self, data: &mut [f32], op: ReduceOp) -> Result<(), CollectiveError> {
        let seg = self.segments;
        match self.algorithm {
            AllReduceAlgorithm::Ring => ring_all_reduce_seg(&self.transport, data, op, seg),
            AllReduceAlgorithm::RecursiveHalvingDoubling => {
                rhd_all_reduce_seg(&self.transport, data, op, seg)
            }
            AllReduceAlgorithm::DoubleBinaryTree => {
                double_tree_all_reduce_seg(&self.transport, data, op, seg)
            }
            AllReduceAlgorithm::NaiveTree => naive_all_reduce_seg(&self.transport, data, op, seg),
        }
    }

    /// All-reduce followed by division by the world size — the S-SGD
    /// gradient average of Eq. 2.
    ///
    /// # Errors
    ///
    /// Propagates algorithm and transport errors.
    pub fn all_reduce_mean(&self, data: &mut [f32]) -> Result<(), CollectiveError> {
        self.all_reduce(data, ReduceOp::Sum)?;
        let scale = 1.0 / self.world_size() as f32;
        for x in data.iter_mut() {
            *x *= scale;
        }
        Ok(())
    }

    /// Ring reduce-scatter (DeAR's OP1). Returns the owned element range.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn reduce_scatter(
        &self,
        data: &mut [f32],
        op: ReduceOp,
    ) -> Result<std::ops::Range<usize>, CollectiveError> {
        ring_reduce_scatter_seg(&self.transport, data, op, self.segments)
    }

    /// Ring all-gather (DeAR's OP2) from this rank's canonical owned chunk.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn all_gather(&self, data: &mut [f32]) -> Result<(), CollectiveError> {
        let owned = ring_owned_chunk(self.rank(), self.world_size());
        ring_all_gather_seg(&self.transport, data, owned, self.segments)
    }

    /// Hierarchical all-reduce for a two-level cluster.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn hierarchical_all_reduce(
        &self,
        shape: ClusterShape,
        data: &mut [f32],
        op: ReduceOp,
    ) -> Result<(), CollectiveError> {
        let placement = Placement::from_shape(shape);
        hierarchical_all_reduce_seg(&self.transport, &placement, data, op, self.segments)
    }

    /// Tree reduce to `root`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn reduce(
        &self,
        data: &mut [f32],
        root: usize,
        op: ReduceOp,
    ) -> Result<(), CollectiveError> {
        tree_reduce_seg(&self.transport, data, root, op, self.segments)
    }

    /// Tree broadcast from `root`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn broadcast(&self, data: &mut [f32], root: usize) -> Result<(), CollectiveError> {
        tree_broadcast_seg(&self.transport, data, root, self.segments)
    }

    /// Synchronizes all ranks (a zero-byte all-reduce).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn barrier(&self) -> Result<(), CollectiveError> {
        let mut token = [0.0f32; 1];
        naive_all_reduce_seg(&self.transport, &mut token, ReduceOp::Sum, self.segments)
    }
}

/// Spawns `world` threads, each with a [`Communicator`] over a shared
/// in-process fabric, runs `f` on every rank, and returns the per-rank
/// results in rank order.
///
/// # Panics
///
/// Panics if any rank's closure panics.
pub fn run_cluster<F, R>(world: usize, f: F) -> Vec<R>
where
    F: Fn(Communicator<LocalEndpoint>) -> R + Sync,
    R: Send,
{
    run_cluster_with(world, AllReduceAlgorithm::Ring, f)
}

/// [`run_cluster`] with an explicit all-reduce algorithm.
///
/// # Panics
///
/// Panics if any rank's closure panics.
pub fn run_cluster_with<F, R>(world: usize, algorithm: AllReduceAlgorithm, f: F) -> Vec<R>
where
    F: Fn(Communicator<LocalEndpoint>) -> R + Sync,
    R: Send,
{
    let eps = LocalFabric::create(world);
    std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| s.spawn(|| f(Communicator::with_algorithm(ep, algorithm))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cluster rank panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_agree() {
        for algo in [
            AllReduceAlgorithm::Ring,
            AllReduceAlgorithm::RecursiveHalvingDoubling,
            AllReduceAlgorithm::DoubleBinaryTree,
            AllReduceAlgorithm::NaiveTree,
        ] {
            let results = run_cluster_with(6, algo, |comm| {
                let mut data: Vec<f32> = (0..19).map(|i| (comm.rank() * 19 + i) as f32).collect();
                comm.all_reduce(&mut data, ReduceOp::Sum).unwrap();
                data
            });
            let expect: Vec<f32> = (0..19)
                .map(|i| (0..6).map(|r| (r * 19 + i) as f32).sum())
                .collect();
            for data in results {
                assert_eq!(data, expect, "{algo:?}");
            }
        }
    }

    #[test]
    fn all_reduce_mean_averages() {
        let results = run_cluster(4, |comm| {
            let mut data = vec![comm.rank() as f32 * 4.0];
            comm.all_reduce_mean(&mut data).unwrap();
            data[0]
        });
        assert_eq!(results, vec![6.0; 4]); // (0 + 4 + 8 + 12) / 4
    }

    #[test]
    fn decoupled_rs_ag_roundtrip() {
        let results = run_cluster(3, |comm| {
            let mut data = vec![1.0f32; 10];
            comm.reduce_scatter(&mut data, ReduceOp::Sum).unwrap();
            comm.all_gather(&mut data).unwrap();
            data
        });
        for data in results {
            assert_eq!(data, vec![3.0; 10]);
        }
    }

    #[test]
    fn barrier_completes() {
        let results = run_cluster(5, |comm| comm.barrier().is_ok());
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn broadcast_and_reduce_roundtrip() {
        let results = run_cluster(4, |comm| {
            let mut data = vec![comm.rank() as f32];
            comm.reduce(&mut data, 2, ReduceOp::Sum).unwrap();
            if comm.rank() != 2 {
                data[0] = -1.0;
            }
            comm.broadcast(&mut data, 2).unwrap();
            data[0]
        });
        assert_eq!(results, vec![6.0; 4]);
    }
}
