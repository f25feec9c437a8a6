//! `TieredEndpoint` — the topology-aware two-tier transport: shared
//! memory within a host, TCP between hosts.
//!
//! Real clusters are hierarchical: ranks on one machine reach each other
//! through memory at sub-microsecond latency, ranks on different machines
//! pay the NIC. A [`TieredEndpoint`] composes the two tiers behind the
//! single [`Transport`] contract, routing **per peer** by host locality:
//! a message to a co-located rank crosses the [`ShmEndpoint`]'s ring
//! buffers, anything else goes over the [`TcpEndpoint`]'s mesh. The
//! collectives above never know — which is the point: the same ring /
//! halving-doubling / hierarchical code runs unchanged, and the
//! hierarchical variants get their intra-node speedup from the transport
//! rather than from special cases.
//!
//! Host locality is not configured twice: it comes from the TCP
//! rendezvous. Every rank's HELLO carries its host id (`--hosts` /
//! `DEAR_HOST_ID`), the master republishes the full table in the WELCOME,
//! and [`TcpEndpoint::host_ids`] exposes it — so the tiered router and the
//! topology-aware hierarchical groups agree on who is co-located with
//! whom.
//!
//! Elastic resize keeps working across tiers. `reconfigure` lets the TCP
//! rendezvous adjudicate the new world first (it alone can see every
//! host), then remaps the shm fabric from the WELCOME's `prev_ranks`
//! table via [`ShmEndpoint::remap`] — master election means new ranks are
//! *not* ascending in old rank, so the explicit old→new map is the only
//! safe way to re-identify co-located survivors.
//!
//! Heartbeats run on **both** tiers deliberately: the TCP mesh keeps its
//! full mesh (co-located pairs included) so a wedged rank is detected
//! cluster-wide even when all its collective traffic flows over memory.

use std::time::{Duration, Instant};

use dear_collectives::{
    CollectiveError, CostModel, Loan, Message, NetworkPreset, Parcel, Transport, WorldChange,
};

use crate::config::NetConfig;
use crate::endpoint::TcpEndpoint;
use crate::shm::{ShmEndpoint, ShmFabric};
use crate::NetError;

/// A two-tier endpoint: shm to co-located ranks, TCP to everyone else.
/// See the [module docs](self).
///
/// One buffer pool serves both tiers, the TCP endpoint's: every buffer a
/// send takes comes from it and every received payload goes back to it,
/// whichever tier the message crossed. Taking from one tier's pool and
/// recycling into the other's would leave the first empty, and every send
/// from it would allocate.
#[derive(Debug)]
pub struct TieredEndpoint {
    tcp: TcpEndpoint,
    shm: Option<ShmEndpoint>,
}

impl TieredEndpoint {
    /// Composes a TCP mesh with an optional shm fabric endpoint for the
    /// same rank. With `None` every peer routes over TCP — the graceful
    /// degradation when no host ids were configured.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Config`] when the two tiers disagree on rank,
    /// world size, or generation, or when the shm fabric claims a peer
    /// that the TCP rendezvous' host table places on a different host —
    /// a misroute would corrupt collectives, so it is refused up front.
    pub fn compose(tcp: TcpEndpoint, shm: Option<ShmEndpoint>) -> Result<TieredEndpoint, NetError> {
        if let Some(shm) = &shm {
            if shm.rank() != tcp.rank() || shm.world_size() != tcp.world_size() {
                return Err(NetError::Config(format!(
                    "tier mismatch: shm is rank {}/{}, tcp is rank {}/{}",
                    shm.rank(),
                    shm.world_size(),
                    tcp.rank(),
                    tcp.world_size()
                )));
            }
            if shm.generation() != tcp.generation() {
                return Err(NetError::Config(format!(
                    "tier mismatch: shm at generation {}, tcp at generation {}",
                    shm.generation(),
                    tcp.generation()
                )));
            }
            let hosts = tcp.host_ids();
            let own_host = hosts[tcp.rank()];
            for (peer, &host) in hosts.iter().enumerate() {
                if peer != tcp.rank() && shm.is_local(peer) && host != own_host {
                    return Err(NetError::Config(format!(
                        "tier mismatch: shm fabric claims rank {peer}, but the rendezvous \
                         places it on host {host:#x}, not {own_host:#x}"
                    )));
                }
            }
        }
        Ok(TieredEndpoint { tcp, shm })
    }

    /// Whether `peer` routes over the shm tier.
    #[must_use]
    pub fn is_local(&self, peer: usize) -> bool {
        peer != self.tcp.rank() && self.shm.as_ref().is_some_and(|s| s.is_local(peer))
    }

    /// The underlying TCP endpoint (host tables, peer stats, generation).
    #[must_use]
    pub fn tcp(&self) -> &TcpEndpoint {
        &self.tcp
    }

    /// The shm tier, when one is attached.
    #[must_use]
    pub fn shm(&self) -> Option<&ShmEndpoint> {
        self.shm.as_ref()
    }

    /// Per-rank host ids from the rendezvous — the input to
    /// topology-aware hierarchical groups.
    #[must_use]
    pub fn host_ids(&self) -> &[u64] {
        self.tcp.host_ids()
    }

    /// Whether every other rank of the world is on this host.
    fn all_local(&self) -> bool {
        (0..self.world_size()).all(|p| p == self.rank() || self.is_local(p))
    }

    fn tier_for(&self, peer: usize) -> &dyn Transport {
        match &self.shm {
            Some(shm) if peer != self.tcp.rank() && shm.is_local(peer) => shm,
            _ => &self.tcp,
        }
    }
}

impl Transport for TieredEndpoint {
    fn rank(&self) -> usize {
        self.tcp.rank()
    }

    fn world_size(&self) -> usize {
        self.tcp.world_size()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.tier_for(to).send(to, msg)
    }

    /// Each hop goes to its tier's own `lend_f32`: a co-located peer is
    /// lent the chunk (its `recv_parcel` reduces from it in place), whether
    /// or not the world also has TCP hops; a TCP peer gets the socket's
    /// direct write and no loan. No hop takes a buffer from a pool.
    unsafe fn lend_f32(&self, to: usize, src: &[f32]) -> Result<Option<Loan>, CollectiveError> {
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { self.tier_for(to).lend_f32(to, src) }
    }

    /// A chunk an shm peer lent is copied into a buffer from the TCP pool,
    /// the one this endpoint's receives recycle into.
    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        let parcel = self
            .recv_parcel(from, true)?
            .expect("a waiting receive returns a parcel");
        parcel.into_message(|bytes| self.take_buffer(bytes), from)
    }

    fn recv_parcel(&self, from: usize, wait: bool) -> Result<Option<Parcel>, CollectiveError> {
        self.tier_for(from).recv_parcel(from, wait)
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        let tcp_ok = self.tcp.set_recv_timeout(timeout);
        if let Some(shm) = &self.shm {
            shm.set_recv_timeout(timeout);
        }
        tcp_ok
    }

    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        self.tcp.take_buffer(capacity_bytes)
    }

    fn recycle_buffer(&self, buf: Vec<u8>) {
        self.tcp.recycle_buffer(buf)
    }

    /// Messages from TCP peers wait in the TCP tier's pool; on one host no
    /// peer is reached over TCP, and nothing is stocked.
    fn reserve_receives(&self, messages: usize, bytes: usize) {
        if !self.all_local() {
            self.tcp.reserve_receives(messages, bytes);
        }
    }

    /// Survives member loss across both tiers. The TCP rendezvous
    /// adjudicates first — it alone spans every host — and its WELCOME
    /// tables then drive the shm remap: co-located survivors are the new
    /// ranks sharing this rank's host id whose `prev_ranks` entry maps
    /// back onto the old fabric. Fresh joiners never enter an existing
    /// fabric (membership is fixed at creation); they are reached over
    /// TCP until the next full launch.
    ///
    /// Every co-located survivor must call this concurrently (they meet
    /// at the fabric's epoch gate), which is exactly how the elastic
    /// protocol already drives `reconfigure` on every surviving rank.
    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        let change = self.tcp.reconfigure(survivors)?;
        let Some(shm) = &mut self.shm else {
            return Ok(change);
        };
        let hosts = self.tcp.host_ids();
        let prevs = self.tcp.prev_ranks();
        let own_host = hosts[change.new_rank];
        let mut pairs = Vec::new();
        for new in 0..change.new_world {
            if hosts[new] != own_host {
                continue;
            }
            let prev = prevs[new];
            if prev == u32::MAX {
                continue; // fresh joiner: TCP-only until the next launch
            }
            let old = prev as usize;
            if old == change.old_rank || shm.is_local(old) {
                pairs.push((old, new));
            }
        }
        shm.remap(change.new_world, change.generation, &pairs)?;
        Ok(change)
    }
}

/// Builds a tiered cluster inside this process: `hosts × ranks_per_host`
/// ranks over real loopback TCP, with one [`ShmFabric`] per simulated
/// host. Rank `r` lives on host `r / ranks_per_host`; endpoints return in
/// rank order. The single-process analog of `dear-launch --hosts`.
///
/// # Errors
///
/// Returns the first [`NetError`] any rank hit during rendezvous or
/// composition.
///
/// # Panics
///
/// Panics if a rendezvous thread panics.
pub fn tiered_loopback(
    hosts: usize,
    ranks_per_host: usize,
) -> Result<Vec<TieredEndpoint>, NetError> {
    tiered_loopback_with(hosts, ranks_per_host, |cfg| cfg)
}

/// [`tiered_loopback`] with a configuration hook applied to every rank's
/// [`NetConfig`] (after the host id is derived from the rank).
///
/// # Errors
///
/// Returns the first [`NetError`] any rank hit during rendezvous or
/// composition.
///
/// # Panics
///
/// Panics if a rendezvous thread panics, or if `hosts == 0` or
/// `ranks_per_host == 0`.
pub fn tiered_loopback_with<F>(
    hosts: usize,
    ranks_per_host: usize,
    tweak: F,
) -> Result<Vec<TieredEndpoint>, NetError>
where
    F: Fn(NetConfig) -> NetConfig,
{
    assert!(hosts > 0 && ranks_per_host > 0, "empty tiered world");
    let world = hosts * ranks_per_host;
    let tcps = crate::loopback::tcp_loopback_with(world, |cfg| {
        let host = cfg.rank.expect("loopback sets the rank") / ranks_per_host;
        tweak(cfg.with_host_id(Some(host as u64)))
    })?;
    // One fabric per host, sized/configured like the TCP tier.
    let shm_cfg = tweak(NetConfig::new(world, 0, "127.0.0.1:0"));
    let mut fabrics: Vec<Vec<ShmEndpoint>> = (0..hosts)
        .map(|h| {
            let members: Vec<usize> = (h * ranks_per_host..(h + 1) * ranks_per_host).collect();
            let mut eps = ShmFabric::with_config(&shm_cfg, &members);
            eps.reverse(); // pop() below hands them out in rank order
            eps
        })
        .collect();
    tcps.into_iter()
        .map(|tcp| {
            let host = tcp.rank() / ranks_per_host;
            let shm = if ranks_per_host > 1 {
                Some(fabrics[host].pop().expect("one fabric slot per rank"))
            } else {
                None // a 1-rank host has no co-located peers
            };
            TieredEndpoint::compose(tcp, shm)
        })
        .collect()
}

/// Measures one link's α-β cost model with a ping-pong probe and fits it
/// by least squares: for each probe size the pair exchanges a round trip
/// `reps` times, takes the **minimum** half round trip (minimum, not
/// mean: queueing noise only ever adds latency), and feeds the
/// `(bytes, ns)` samples to [`CostModel::fit`].
///
/// Both ranks of the pair call this concurrently naming each other. Each
/// size runs two passes: in the first the higher rank times `reps` round
/// trips while the lower echoes, in the second the roles swap. Every rank
/// fits from the best of the `reps` round trips it timed itself, so the
/// call is symmetric: both sides see the same link and return models of
/// it within noise. Run it over a [`ShmEndpoint`] pair and a cross-host
/// pair separately to get per-tier models.
///
/// # Errors
///
/// Propagates the first transport error; returns
/// [`CollectiveError::InvalidRank`] for a self-probe.
pub fn probe_alpha_beta<T: Transport + ?Sized>(
    ep: &T,
    peer: usize,
    sizes_bytes: &[usize],
    reps: usize,
) -> Result<CostModel, CollectiveError> {
    ep.check_peer(peer)?;
    let reps = reps.max(1);
    let mut samples = Vec::with_capacity(sizes_bytes.len());
    for &bytes in sizes_bytes {
        let elems = (bytes / 4).max(1);
        let payload = vec![1.0f32; elems];
        let mut best_ns = u64::MAX;
        for initiator in [ep.rank() > peer, ep.rank() < peer] {
            for _ in 0..reps {
                if initiator {
                    let start = Instant::now();
                    ep.send(peer, payload.clone().into())?;
                    let echo = ep.recv(peer)?;
                    let rtt = start.elapsed();
                    drop(echo);
                    best_ns = best_ns.min((rtt.as_nanos() / 2) as u64);
                } else {
                    let msg = ep.recv(peer)?;
                    ep.send(peer, msg)?;
                }
            }
        }
        samples.push((elems as u64 * 4, best_ns as f64));
    }
    if samples.len() < 2 || samples.iter().all(|&(b, _)| b == samples[0].0) {
        return Err(CollectiveError::Reconfigure {
            reason: "alpha-beta probe needs at least two distinct sizes".to_string(),
        });
    }
    // A degenerate least-squares fit (negative slope or intercept before
    // clamping — loopback noise made the big probe beat the small one)
    // would report a link with free startups or free bytes, which no
    // link has. Fall back to the preset that best explains the samples
    // instead of trusting a fit the data cannot support.
    Ok(CostModel::fit_checked(&samples).unwrap_or_else(|| preset_fallback(&samples)))
}

/// The calibrated [`NetworkPreset`] model closest to the measured samples
/// (least total absolute residual) — the probe's answer when its own
/// least-squares fit is degenerate.
fn preset_fallback(samples: &[(u64, f64)]) -> CostModel {
    let presets = [
        NetworkPreset::TenGbE,
        NetworkPreset::HundredGbIb,
        NetworkPreset::NvLink,
    ];
    let residual = |m: &CostModel| {
        samples
            .iter()
            .map(|&(b, t)| (m.p2p(b).as_nanos() as f64 - t).abs())
            .sum::<f64>()
    };
    presets
        .into_iter()
        .map(NetworkPreset::cost_model)
        .min_by(|a, b| residual(a).total_cmp(&residual(b)))
        .expect("preset list is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dear_collectives::{ring_all_reduce, ReduceOp};
    use std::time::Duration;

    fn fast(cfg: NetConfig) -> NetConfig {
        cfg.with_send_timeout(Duration::from_secs(5))
            .with_recv_timeout(Some(Duration::from_secs(10)))
    }

    #[test]
    fn degenerate_probe_samples_fall_back_to_the_nearest_preset() {
        // Adversarial loopback noise: the 64 KB probe "finished faster"
        // than the 1 KB one. The least-squares fit is degenerate (negative
        // slope), so the probe must answer with a preset, not a zero-β
        // model claiming infinite bandwidth.
        let decreasing = [(1_000u64, 50_000.0), (64_000, 10_000.0)];
        assert!(CostModel::fit_checked(&decreasing).is_none());
        let fallback = preset_fallback(&decreasing);
        assert!(
            fallback.beta_ns_per_byte > 0.0 && fallback.alpha_ns > 0.0,
            "fallback must be a usable preset, got {fallback:?}"
        );
        // The fallback picks the preset that best explains the samples:
        // exact samples from a preset's own model select that preset.
        for preset in [
            NetworkPreset::TenGbE,
            NetworkPreset::HundredGbIb,
            NetworkPreset::NvLink,
        ] {
            let m = preset.cost_model();
            let samples: Vec<(u64, f64)> = [1_000u64, 64_000, 1 << 20]
                .iter()
                .map(|&b| (b, m.p2p(b).as_nanos() as f64))
                .collect();
            let picked = preset_fallback(&samples);
            assert_eq!(
                picked.alpha_ns,
                m.alpha_ns,
                "{} samples picked {picked:?}",
                preset.label()
            );
        }
    }

    #[test]
    fn tiered_routes_local_peers_over_shm() {
        let eps = tiered_loopback_with(2, 2, fast).unwrap();
        // Ranks 0,1 on host 0; ranks 2,3 on host 1.
        assert!(eps[0].is_local(1));
        assert!(!eps[0].is_local(2));
        assert!(!eps[0].is_local(3));
        assert!(!eps[0].is_local(0), "self is not a peer");
        assert!(eps[3].is_local(2));
        assert_eq!(eps[0].host_ids(), &[0, 0, 1, 1]);
    }

    #[test]
    fn tiered_all_reduce_matches_analytic_sum() {
        let eps = tiered_loopback_with(2, 2, fast).unwrap();
        std::thread::scope(|s| {
            for ep in &eps {
                s.spawn(move || {
                    let mut data = vec![ep.rank() as f32 + 1.0; 64];
                    ring_all_reduce(ep, &mut data, ReduceOp::Sum).unwrap();
                    assert_eq!(data, vec![10.0; 64]);
                });
            }
        });
    }

    #[test]
    fn one_rank_hosts_degrade_to_pure_tcp() {
        let eps = tiered_loopback_with(3, 1, fast).unwrap();
        for ep in &eps {
            assert!(ep.shm().is_none());
            for peer in 0..3 {
                assert!(!ep.is_local(peer));
            }
        }
        std::thread::scope(|s| {
            for ep in &eps {
                s.spawn(move || {
                    let mut data = vec![ep.rank() as f32; 16];
                    ring_all_reduce(ep, &mut data, ReduceOp::Sum).unwrap();
                    assert_eq!(data, vec![3.0; 16]);
                });
            }
        });
    }

    #[test]
    fn compose_rejects_mismatched_tiers() {
        let tcps = crate::loopback::tcp_loopback_with(2, fast).unwrap();
        // An shm endpoint claiming a different rank than the TCP one.
        let mut shm = ShmFabric::create(2);
        let wrong = shm.remove(1); // rank 1 paired with tcp rank 0
        let err =
            TieredEndpoint::compose(tcps.into_iter().next().unwrap(), Some(wrong)).unwrap_err();
        assert!(
            matches!(err, NetError::Config(ref m) if m.contains("tier mismatch")),
            "{err}"
        );
    }

    #[test]
    fn compose_rejects_shm_peers_the_rendezvous_disowns() {
        // TCP says the two ranks are on different hosts, but the fabric
        // claims both: composing must fail loudly, not misroute.
        let tcps = crate::loopback::tcp_loopback_with(2, |cfg| {
            let host = cfg.rank.expect("rank set");
            fast(cfg.with_host_id(Some(host as u64)))
        })
        .unwrap();
        let mut shm = ShmFabric::create(2);
        let ep0 = shm.remove(0);
        let err = TieredEndpoint::compose(tcps.into_iter().next().unwrap(), Some(ep0)).unwrap_err();
        assert!(
            matches!(err, NetError::Config(ref m) if m.contains("places it on host")),
            "{err}"
        );
    }

    /// Holds every other send of rank 0 back by [`HELD_BACK`] before it
    /// leaves, so some of its round trips are slow and some are not.
    struct SlowEveryOtherSend<T> {
        inner: T,
        sends: std::sync::atomic::AtomicUsize,
    }

    const HELD_BACK: Duration = Duration::from_millis(5);

    impl<T: Transport> Transport for SlowEveryOtherSend<T> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }

        fn world_size(&self) -> usize {
            self.inner.world_size()
        }

        fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
            let n = self
                .sends
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.rank() == 0 && n % 2 == 1 {
                std::thread::sleep(HELD_BACK);
            }
            self.inner.send(to, msg)
        }

        fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
            self.inner.recv(from)
        }
    }

    #[test]
    fn alpha_beta_probe_fits_the_same_link_on_both_ranks() {
        // A 0.5 ms + 10 ns/B link, precise to the delivery stamp. Some of
        // rank 0's sends are held back 5 ms, but every probe size still
        // has undelayed round trips in both directions: each rank's best
        // of its own round trips is the link, so the two fits must agree.
        // A rank that times a single round trip fits α ≈ 3 ms instead.
        let link = CostModel::new(500_000.0, 10.0, 0.0);
        let eps: Vec<_> = dear_collectives::LocalFabric::create(2)
            .into_iter()
            .map(|ep| SlowEveryOtherSend {
                inner: dear_collectives::DelayFabric::new(ep, link),
                sends: Default::default(),
            })
            .collect();
        let sizes = [1usize << 10, 1 << 16];
        let models: Vec<CostModel> = std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .iter()
                .map(|ep| s.spawn(move || probe_alpha_beta(ep, 1 - ep.rank(), &sizes, 9).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let (a0, a1) = (models[0].alpha_ns, models[1].alpha_ns);
        assert!(
            (a0 - a1).abs() <= 0.1 * a0.max(a1),
            "rank 0 fitted α = {a0} ns, rank 1 α = {a1} ns: {models:?}"
        );
    }

    #[test]
    fn alpha_beta_probe_fits_a_positive_model_per_tier() {
        let eps = tiered_loopback_with(1, 2, fast).unwrap();
        let sizes = [1usize << 10, 1 << 14, 1 << 17];
        let models: Vec<CostModel> = std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .iter()
                .map(|ep| {
                    let peer = 1 - ep.rank();
                    s.spawn(move || probe_alpha_beta(ep, peer, &sizes, 3).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for m in &models {
            assert!(m.beta_ns_per_byte > 0.0, "fitted β must be positive: {m:?}");
            assert!(m.p2p(1 << 20).as_nanos() > 0);
        }
    }
}
