//! Physical topology and host-placement model for topology-aware
//! collectives.
//!
//! Two concerns live here:
//!
//! 1. **Where ranks physically are** — a [`HostMap`] records which host
//!    each global rank runs on, and a [`Placement`] derived from it groups
//!    ranks by host locality. `hierarchical.rs` consumes a `Placement`, so
//!    the intra-node ring is the set of ranks that actually share a host
//!    (and thus a shared-memory fabric), not whatever ranks happen to be
//!    adjacent in rank order.
//! 2. **How the inter-node fabric is wired** — a [`Topology`] names the
//!    physical interconnect shape (ring, tree, butterfly/hypercube,
//!    2-D mesh). Each collective algorithm induces a communication
//!    *pattern*; [`Topology::link_stress`] estimates how well a pattern
//!    embeds into the wiring as a multiplicative β penalty (average link
//!    dilation), which is what lets the online selector's winner shift
//!    with the topology and not just the message size.
//!
//! The dilation numbers are deliberately simple closed forms (documented
//! per arm) — they capture the first-order effect (a hypercube exchange on
//! a physical ring crosses many links; a neighbor ring on a mesh crosses
//! one) without modelling routing or adaptive congestion.

use crate::error::CollectiveError;
use crate::hierarchical::ClusterShape;

/// Physical interconnect shape of the inter-node fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Nodes wired in a cycle; neighbor traffic is free of contention.
    Ring,
    /// A (binary) tree of switches/nodes; up-down traffic matches it.
    Tree,
    /// Butterfly / hypercube wiring: distance-`2^k` exchanges are direct.
    Butterfly,
    /// A `rows × cols` 2-D mesh (torus-less).
    Mesh2D(usize, usize),
}

/// The communication pattern a collective algorithm induces, used to score
/// how it embeds into a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommPattern {
    /// Each rank talks to its `±1` neighbor (ring RS/AG).
    NeighborRing,
    /// Distance-`2^k` pairwise exchanges (recursive halving-doubling).
    Hypercube,
    /// Parent/child up-down traffic (binomial and binary trees).
    TreeUpDown,
}

impl Topology {
    /// Short label for result tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Topology::Ring => "ring",
            Topology::Tree => "tree",
            Topology::Butterfly => "butterfly",
            Topology::Mesh2D(..) => "mesh2d",
        }
    }

    /// Average link dilation (≥ 1) of running `pattern` over `world` nodes
    /// wired as `self`: the mean number of physical links one logical
    /// message crosses. Multiplies the β term of a cost model — a message
    /// that crosses `k` links occupies `k` links' worth of bandwidth.
    ///
    /// Closed forms, per arm:
    ///
    /// - neighbor traffic on a ring or (snake-ordered) mesh is direct
    ///   (dilation 1); on a tree adjacent leaves sit under different
    ///   subtrees on average ~2 hops apart; on a butterfly, ranks `i` and
    ///   `i+1` differ in ~`log₂(P)/2` address bits on average;
    /// - hypercube exchanges are direct on a butterfly; on a ring the
    ///   distance-`2^k` rounds average `(P−1)/log₂(P)` links; on a mesh
    ///   they average a quarter of the perimeter; on a tree ~`log₂(P)`;
    /// - tree up-down traffic is direct on a tree, ~`log₂(P)`-cheap on a
    ///   butterfly (a binomial tree embeds in a hypercube with unit
    ///   dilation), and pays root congestion on rings/meshes.
    #[must_use]
    pub fn link_stress(&self, pattern: CommPattern, world: usize) -> f64 {
        let p = world.max(2) as f64;
        let log_p = p.log2().max(1.0);
        let stress = match (self, pattern) {
            (Topology::Ring, CommPattern::NeighborRing) => 1.0,
            (Topology::Ring, CommPattern::Hypercube) => (p - 1.0) / log_p,
            (Topology::Ring, CommPattern::TreeUpDown) => p / 4.0,
            (Topology::Tree, CommPattern::NeighborRing) => 2.0,
            (Topology::Tree, CommPattern::Hypercube) => log_p,
            (Topology::Tree, CommPattern::TreeUpDown) => 1.0,
            (Topology::Butterfly, CommPattern::NeighborRing) => (log_p / 2.0).max(1.0),
            (Topology::Butterfly, CommPattern::Hypercube) => 1.0,
            (Topology::Butterfly, CommPattern::TreeUpDown) => 1.0,
            (Topology::Mesh2D(..), CommPattern::NeighborRing) => 1.0,
            (Topology::Mesh2D(r, c), CommPattern::Hypercube) => ((*r + *c) as f64 / 4.0).max(1.0),
            (Topology::Mesh2D(r, c), CommPattern::TreeUpDown) => ((*r + *c) as f64 / 4.0).max(1.0),
        };
        stress.max(1.0)
    }
}

/// Which host each global rank runs on, by opaque host id. This is the raw
/// fact the transport layer learns at rendezvous (`DEAR_HOST_ID`); derive a
/// [`Placement`] from it to drive hierarchical collectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostMap {
    hosts: Vec<u64>,
}

impl HostMap {
    /// Builds a map from per-rank host ids (`hosts[r]` is rank `r`'s host).
    #[must_use]
    pub fn new(hosts: Vec<u64>) -> Self {
        HostMap { hosts }
    }

    /// A contiguous-blocks map: ranks `n·g .. (n+1)·g` on host `n`.
    #[must_use]
    pub fn uniform(nodes: usize, gpus_per_node: usize) -> Self {
        HostMap {
            hosts: (0..nodes * gpus_per_node)
                .map(|r| (r / gpus_per_node.max(1)) as u64)
                .collect(),
        }
    }

    /// Total ranks described.
    #[must_use]
    pub fn world(&self) -> usize {
        self.hosts.len()
    }

    /// The host id of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn host_of(&self, rank: usize) -> u64 {
        self.hosts[rank]
    }

    /// Whether two ranks share a host.
    ///
    /// # Panics
    ///
    /// Panics if either rank is out of range.
    #[must_use]
    pub fn co_located(&self, a: usize, b: usize) -> bool {
        self.hosts[a] == self.hosts[b]
    }

    /// Ranks grouped by host, each group in ascending rank order, groups
    /// ordered by their smallest rank. Groups may be uneven — validation
    /// happens in [`HostMap::placement`].
    #[must_use]
    pub fn node_groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
        for (rank, &host) in self.hosts.iter().enumerate() {
            match groups.iter_mut().find(|(h, _)| *h == host) {
                Some((_, g)) => g.push(rank),
                None => groups.push((host, vec![rank])),
            }
        }
        groups.into_iter().map(|(_, g)| g).collect()
    }

    /// Derives the validated [`Placement`]: every host must hold the same
    /// number of ranks (the hierarchical algorithm's cross-node rings pair
    /// ranks by local index, which requires rectangular groups).
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::UnevenGroups`] when host group sizes
    /// differ or the world is empty.
    pub fn placement(&self) -> Result<Placement, CollectiveError> {
        Placement::from_groups(self.node_groups(), self.world())
    }
}

/// A validated host-locality placement: `world` ranks over `nodes` hosts of
/// `gpus_per_node` ranks each, where node groups come from actual host
/// locality (not rank arithmetic). Consumed by the hierarchical
/// collectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `groups[n]` = global ranks on node `n`, ascending.
    groups: Vec<Vec<usize>>,
    /// `node_of[r]` = node index of global rank `r`.
    node_of: Vec<usize>,
    /// `local_of[r]` = position of rank `r` within its node group.
    local_of: Vec<usize>,
}

impl Placement {
    /// Builds the placement for a contiguous-blocks [`ClusterShape`] —
    /// identical groups to `ClusterShape::node_group`/`cross_group`.
    #[must_use]
    pub fn from_shape(shape: ClusterShape) -> Self {
        HostMap::uniform(shape.nodes, shape.gpus_per_node)
            .placement()
            .expect("uniform host map always tiles")
    }

    /// Validated contiguous placement of `world` ranks in groups of
    /// `gpus_per_node` — the checked replacement for the old silent
    /// `world / nodes` division at `ClusterShape` call sites.
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
        Ok(Placement::from_shape(ClusterShape::new(
            world / gpus_per_node,
            gpus_per_node,
        )))
    }

    fn from_groups(groups: Vec<Vec<usize>>, world: usize) -> Result<Self, CollectiveError> {
        let Some(first) = groups.first() else {
            return Err(CollectiveError::UnevenGroups {
                world,
                group_len: 0,
            });
        };
        let g = first.len();
        for group in &groups {
            if group.len() != g {
                return Err(CollectiveError::UnevenGroups {
                    world,
                    group_len: group.len(),
                });
            }
        }
        debug_assert_eq!(groups.len() * g, world, "groups partition the world");
        let mut node_of = vec![0usize; world];
        let mut local_of = vec![0usize; world];
        for (n, group) in groups.iter().enumerate() {
            for (l, &rank) in group.iter().enumerate() {
                node_of[rank] = n;
                local_of[rank] = l;
            }
        }
        Ok(Placement {
            groups,
            node_of,
            local_of,
        })
    }

    /// Number of nodes (hosts).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.groups.len()
    }

    /// Ranks per node.
    #[must_use]
    pub fn gpus_per_node(&self) -> usize {
        self.groups.first().map_or(0, Vec::len)
    }

    /// Total ranks.
    #[must_use]
    pub fn world(&self) -> usize {
        self.node_of.len()
    }

    /// The equivalent two-level shape (group *sizes* only; membership may
    /// differ from contiguous rank blocks).
    #[must_use]
    pub fn shape(&self) -> ClusterShape {
        ClusterShape::new(self.nodes(), self.gpus_per_node())
    }

    /// Node index of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// Position of `rank` within its node group (its intra-node ring rank).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn local_of(&self, rank: usize) -> usize {
        self.local_of[rank]
    }

    /// Global ranks sharing `rank`'s node, ascending (the intra-node ring).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn node_group(&self, rank: usize) -> &[usize] {
        &self.groups[self.node_of[rank]]
    }

    /// Global ranks sharing `rank`'s local index across all nodes, in node
    /// order (the inter-node ring this rank participates in).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn cross_group(&self, rank: usize) -> Vec<usize> {
        let local = self.local_of[rank];
        self.groups.iter().map(|g| g[local]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_host_map_matches_cluster_shape_groups() {
        let shape = ClusterShape::new(3, 4);
        let placement = Placement::from_shape(shape);
        for r in 0..shape.world() {
            assert_eq!(placement.node_group(r), &shape.node_group(r)[..]);
            assert_eq!(placement.cross_group(r), shape.cross_group(r));
            assert_eq!(placement.node_of(r), r / 4);
            assert_eq!(placement.local_of(r), r % 4);
        }
        assert_eq!(placement.shape(), shape);
    }

    #[test]
    fn interleaved_hosts_group_by_locality_not_rank_order() {
        // Ranks alternate hosts A, B, A, B — rank order would pair 0 with
        // 1; locality pairs 0 with 2.
        let map = HostMap::new(vec![10, 20, 10, 20]);
        let placement = map.placement().unwrap();
        assert_eq!(placement.node_group(0), &[0, 2]);
        assert_eq!(placement.node_group(1), &[1, 3]);
        assert_eq!(placement.cross_group(0), vec![0, 1]);
        assert_eq!(placement.cross_group(2), vec![2, 3]);
        assert!(map.co_located(0, 2));
        assert!(!map.co_located(0, 1));
    }

    #[test]
    fn uneven_groups_are_a_typed_error() {
        let err = HostMap::new(vec![1, 1, 2]).placement().unwrap_err();
        assert_eq!(
            err,
            CollectiveError::UnevenGroups {
                world: 3,
                group_len: 1,
            }
        );
        let err = Placement::for_world(6, 4).unwrap_err();
        assert!(matches!(
            err,
            CollectiveError::UnevenGroups {
                world: 6,
                group_len: 4,
            }
        ));
        let err = Placement::for_world(0, 2).unwrap_err();
        assert!(matches!(err, CollectiveError::UnevenGroups { .. }));
        assert!(Placement::for_world(8, 4).is_ok());
    }

    #[test]
    fn link_stress_prefers_the_matching_pattern() {
        let world = 16;
        // Each topology's native pattern is its cheapest.
        for (topo, native) in [
            (Topology::Ring, CommPattern::NeighborRing),
            (Topology::Butterfly, CommPattern::Hypercube),
            (Topology::Tree, CommPattern::TreeUpDown),
        ] {
            for other in [
                CommPattern::NeighborRing,
                CommPattern::Hypercube,
                CommPattern::TreeUpDown,
            ] {
                assert!(
                    topo.link_stress(native, world) <= topo.link_stress(other, world),
                    "{topo:?}: {native:?} should be no worse than {other:?}"
                );
            }
        }
        // Stress is never below 1 (a message crosses at least one link).
        for topo in [
            Topology::Ring,
            Topology::Tree,
            Topology::Butterfly,
            Topology::Mesh2D(4, 4),
        ] {
            for pat in [
                CommPattern::NeighborRing,
                CommPattern::Hypercube,
                CommPattern::TreeUpDown,
            ] {
                assert!(topo.link_stress(pat, world) >= 1.0);
            }
        }
    }

    #[test]
    fn hypercube_on_a_ring_gets_worse_with_scale() {
        let small = Topology::Ring.link_stress(CommPattern::Hypercube, 8);
        let large = Topology::Ring.link_stress(CommPattern::Hypercube, 64);
        assert!(large > small, "{large} <= {small}");
        assert_eq!(Topology::Ring.label(), "ring");
        assert_eq!(Topology::Mesh2D(2, 3).label(), "mesh2d");
    }
}
