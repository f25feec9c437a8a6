//! # dear-net — real TCP transport and multi-process cluster runtime
//!
//! Everything the rest of the repository does over the in-process
//! [`LocalFabric`](dear_collectives::LocalFabric) — ring / recursive
//! halving-doubling / tree collectives, the DeAR communication engine, full
//! training — also runs unchanged over this crate's [`TcpEndpoint`],
//! because both implement the same
//! [`Transport`](dear_collectives::Transport) trait. The pieces:
//!
//! - [`TcpEndpoint`] — one rank's full mesh of TCP peer connections, with
//!   rank-0 rendezvous, one reader thread and one inbox per peer (`send`
//!   writes its frame on the calling thread), pooled buffers, a heartbeat
//!   failure detector, and timeouts that surface as
//!   [`CollectiveError`](dear_collectives::CollectiveError) instead of
//!   hangs (see [`endpoint`] for the protocol);
//! - [`NetConfig`] — explicit or `torchrun`-style environment
//!   configuration (`RANK`, `WORLD_SIZE`, `MASTER_ADDR`, `MASTER_PORT`,
//!   `DEAR_*` knobs);
//! - [`tcp_loopback`] — a whole cluster over `127.0.0.1` inside one
//!   process, for tests and benches;
//! - [`launch_world`] and the `dear-launch` binary — spawn and supervise
//!   `N` worker processes, propagating the first failure;
//! - [`run_demo_worker`] — a complete DeAR training run over TCP, used by
//!   `dear-launch --demo` and the smoke tests.
//!
//! # Example
//!
//! ```
//! use dear_collectives::{ring_all_reduce, ReduceOp, Transport};
//! use dear_net::tcp_loopback;
//!
//! let endpoints = tcp_loopback(4).unwrap();
//! std::thread::scope(|s| {
//!     for ep in &endpoints {
//!         s.spawn(move || {
//!             let mut grad = vec![ep.rank() as f32; 16];
//!             ring_all_reduce(ep, &mut grad, ReduceOp::Sum).unwrap(); // real sockets
//!             assert_eq!(grad, vec![6.0; 16]); // 0+1+2+3
//!         });
//!     }
//! });
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
mod config;
mod demo;
pub mod endpoint;
pub mod frame;
mod launch;
mod loopback;
pub mod shm;
pub mod tiered;

pub use chaos::{ChaosAction, ChaosEvent, ChaosPlan};
pub use config::{DemoOptions, NetConfig, NetError};
pub use demo::{hash_params, run_demo_host, run_demo_on, run_demo_worker, DemoSummary};
pub use endpoint::{PeerStats, TcpEndpoint};
pub use launch::{
    free_port, launch_world, launch_world_elastic, ElasticOutcome, LaunchOptions, RestartPolicy,
    WorldGuard, WorldOutcome,
};
pub use loopback::{tcp_loopback, tcp_loopback_with};
pub use shm::{ShmEndpoint, ShmFabric};
pub use tiered::{probe_alpha_beta, tiered_loopback, tiered_loopback_with, TieredEndpoint};
