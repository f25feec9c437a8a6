//! # dear-core — DeAR: decoupled all-reduce pipelining
//!
//! The core library of the DeAR reproduction: a real, multi-threaded
//! distributed-training runtime implementing the paper's contribution.
//!
//! Every gradient group's all-reduce is decoupled into
//!
//! 1. **OP1 — reduce-scatter**, launched asynchronously the moment the
//!    group's last gradient is produced during backprop (**BackPipe**);
//!    the owning rank then applies the optimizer update to its parameter
//!    shard; and
//! 2. **OP2 — all-gather** of the updated parameters, overlapped with the
//!    *next* iteration's feed-forward (**FeedPipe**): each layer's forward
//!    waits just-in-time for exactly the groups containing its tensors.
//!
//! Communication runs on a companion thread per worker over an in-process
//! fabric (optionally with injected α-β network delays), so the overlap is
//! real wall-clock overlap, and the resulting parameters are numerically
//! equal to synchronous S-SGD (Eq. 2) — asserted by this crate's tests.
//!
//! # Examples
//!
//! The paper's Listing 1, in Rust:
//!
//! ```
//! use dear_core::{run_training, TrainConfig};
//! use dear_minidnn::{BlobDataset, Linear, Relu, Sequential};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let data = BlobDataset::new(4, 3, 0.3, 1);
//! let finals = run_training(4, TrainConfig::default(), |handle| {
//!     let rank = handle.rank();
//!     let mut rng = StdRng::seed_from_u64(0); // same init on every rank
//!     let mut net = Sequential::new()
//!         .push(Linear::new(4, 16, &mut rng))
//!         .push(Relu::new())
//!         .push(Linear::new(16, 3, &mut rng));
//!     let mut optim = handle.into_optim(&net); // dear.DistOptim(...)
//!     for step in 0..20 {
//!         let (x, labels) = data.shard(step, 32, rank, 4);
//!         optim.train_step(&mut net, &x, &labels).unwrap();
//!     }
//!     optim.synchronize(&mut net).unwrap(); // before validation
//!     net.flat_params()
//! });
//! assert_eq!(finals[0], finals[3]); // all ranks hold identical models
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
mod cluster;
mod comm;
mod dist_optim;
mod layout;
mod strategy;
pub mod trace;
pub mod tuning;

pub use checkpoint::{CheckpointError, CheckpointStore, TrainCheckpoint};
pub use cluster::{run_training, run_worker, train_single_reference, TrainConfig, WorkerHandle};
pub use comm::{HyperParams, OptimKind, OptimState};
pub use dear_collectives::DType;
pub use dear_fusion as fusion;
pub use dist_optim::{DistOptim, PipelineMode};
pub use layout::{GroupLayout, ItemSpec};
pub use strategy::{ParallelismStrategy, StrategyError};
pub use tuning::{forecast_strategy, OnlineTuning, StrategyForecast};
