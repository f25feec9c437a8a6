//! `ShmFabric`: the in-process fabric of `dear-collectives`
//! ([`LocalFabric`]) built from a [`NetConfig`] for the co-located rank
//! threads of one host. [`crate::TieredEndpoint`] composes it with a TCP
//! mesh between hosts and remaps its ranks after an elastic resize
//! ([`ShmEndpoint::remap`]).

use dear_collectives::{FabricConfig, LocalEndpoint, LocalFabric};

use crate::config::NetConfig;

/// One co-located rank's endpoint: the in-process fabric's.
pub type ShmEndpoint = LocalEndpoint;

/// The shared-memory fabric connecting the co-located ranks of one host.
///
/// # Examples
///
/// A whole world on one host, byte-identical to any other transport:
///
/// ```
/// use dear_net::ShmFabric;
/// use dear_collectives::{ring_all_reduce, ReduceOp, Transport};
///
/// let eps = ShmFabric::create(4);
/// std::thread::scope(|s| {
///     for ep in &eps {
///         s.spawn(move || {
///             let mut grad = vec![ep.rank() as f32 + 1.0; 64];
///             ring_all_reduce(ep, &mut grad, ReduceOp::Sum).unwrap();
///             assert_eq!(grad, vec![10.0; 64]);
///         });
///     }
/// });
/// ```
#[derive(Debug)]
pub struct ShmFabric;

impl ShmFabric {
    /// Creates a fabric spanning a whole `world` of co-located ranks with
    /// [`NetConfig::new`]'s settings (30 s send and receive deadlines,
    /// failure detector on at 1 s × 5 misses, generation 0). Element `r`
    /// belongs to rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    #[must_use]
    pub fn create(world: usize) -> Vec<ShmEndpoint> {
        let cfg = NetConfig::new(world, 0, "127.0.0.1:0");
        let members: Vec<usize> = (0..world).collect();
        Self::with_config(&cfg, &members)
    }

    /// Creates a fabric for the co-located subset `members` (global ranks,
    /// strictly ascending) of a world of `cfg.world` ranks, honouring the
    /// config's generation, ring depth (`outbox_frames`), deadlines and
    /// failure detector. Element `i` belongs to global rank `members[i]`.
    ///
    /// Endpoints can only reach co-located peers; sends to off-host ranks
    /// return [`dear_collectives::CollectiveError::InvalidRank`] — compose
    /// with a TCP mesh via [`crate::TieredEndpoint`] for the full world.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, unsorted, or lists a rank `>=
    /// cfg.world`.
    #[must_use]
    pub fn with_config(cfg: &NetConfig, members: &[usize]) -> Vec<ShmEndpoint> {
        let fabric = FabricConfig {
            frames: cfg.outbox_frames,
            send_timeout: cfg.send_timeout,
            recv_timeout: cfg.recv_timeout,
            heartbeat_interval: cfg.heartbeat_interval,
            heartbeat_miss_budget: cfg.heartbeat_miss_budget,
            generation: cfg.generation,
        };
        LocalFabric::with_config(cfg.world, members, &fabric)
    }
}
