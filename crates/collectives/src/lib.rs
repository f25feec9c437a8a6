//! # dear-collectives — collective communication from scratch
//!
//! The communication substrate of the DeAR reproduction. The paper's system
//! wraps NCCL; this crate replaces it with from-scratch implementations of
//! the same collective algorithms, runnable on real data over an in-process
//! multi-threaded fabric, plus α-β cost models for simulation:
//!
//! - [`Transport`] / [`LocalFabric`] / [`DelayFabric`] / [`GroupTransport`]:
//!   point-to-point messaging between ranks (threads), optionally with
//!   injected network-like delays.
//! - [`ring_reduce_scatter`] / [`ring_all_gather`] / [`ring_all_reduce`]:
//!   the decomposition DeAR exploits — `AR = RS ∘ AG` with identical cost
//!   halves (paper Eqs. 3–5).
//! - [`rhd_all_reduce`], [`double_tree_all_reduce`],
//!   [`hierarchical_all_reduce`], [`naive_all_reduce`]: the other
//!   all-reduce families discussed in §VII-A, all of which also decouple
//!   into two continuous operations.
//!
//! - [`CostModel`] / [`NetworkPreset`]: α-β(-γ) cost functions calibrated to
//!   the paper's quoted 10GbE / 100GbIB measurements.
//! - [`run_cluster`]: a one-call harness that spawns one thread per rank,
//!   each with its [`LocalEndpoint`].
//!
//! Every hop of every collective is one message carrying the whole slice
//! it moves, cast on send to a wire [`DType`] and accumulated in `f32` on
//! receipt. One function per collective, taking that `wire`; the ring
//! trio and [`hierarchical_all_reduce`] also keep an `f32` spelling, whose
//! wire-taking twins carry the `_on_wire` suffix.
//!
//! # Examples
//!
//! Verify the paper's zero-overhead decoupling claim numerically:
//!
//! ```
//! use dear_collectives::{
//!     ring_all_gather, ring_owned_chunk, ring_reduce_scatter, run_cluster, ReduceOp, Transport,
//! };
//!
//! let results = run_cluster(8, |ep| {
//!     let mut grad = vec![0.5f32; 1000];
//!     // OP1 during backprop...
//!     ring_reduce_scatter(&ep, &mut grad, ReduceOp::Sum).unwrap();
//!     // ...OP2 during the next iteration's feed-forward.
//!     ring_all_gather(&ep, &mut grad, ring_owned_chunk(ep.rank(), 8)).unwrap();
//!     grad
//! });
//! for grad in results {
//!     assert!(grad.iter().all(|&g| (g - 4.0).abs() < 1e-6));
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod chunk;
mod compress;
mod cost;
mod error;
mod hierarchical;
mod hop;
#[cfg(test)]
mod interleave;
pub mod lease;
mod reduce;
mod rhd;
mod ring;
mod shm;
pub mod simd;
mod topology;
mod transport;
mod tree;
mod wire;

pub use chunk::{chunk_range, chunk_ranges};
pub use compress::{
    compressed_aggregate, compressed_aggregate_wire_bytes, ring_all_gather_variable, Compressed,
    Compressor, ErrorFeedback, TopK, Uniform8,
};
pub use cost::{CostModel, NetworkPreset};
pub use error::CollectiveError;
pub use hierarchical::{
    hierarchical_all_gather_phase, hierarchical_all_reduce, hierarchical_all_reduce_on_wire,
    hierarchical_reduce_scatter_phase, ClusterShape, HierarchicalShard,
};
pub use hop::{Epilogue, EPILOGUE_SLICE};
pub use lease::{Lease, Loan, Parcel};
pub use reduce::ReduceOp;
pub use rhd::rhd_all_reduce;
pub use ring::{
    compact_owned_shard, ring_all_gather, ring_all_gather_on_wire, ring_all_reduce,
    ring_all_reduce_on_wire, ring_begin, ring_finish, ring_owned_chunk, ring_receive,
    ring_reduce_scatter, ring_reduce_scatter_on_wire, RingKind, RingOp,
};
pub use shm::{FabricConfig, LocalEndpoint, LocalFabric};
pub use topology::{HostMap, Placement};
pub use transport::{
    run_cluster, BufferPool, DelayFabric, GroupTransport, Message, Transport, WorldChange,
    MIN_LINK_FRAMES,
};
pub use tree::{
    double_tree_all_reduce, double_tree_broadcast_phase, double_tree_reduce_phase,
    naive_all_reduce, tree_broadcast, tree_reduce,
};
pub use wire::{bf16_to_f32, f16_to_f32, f32_to_bf16, f32_to_f16, round_to_wire, DType, WireBuf};
