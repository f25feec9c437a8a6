//! Host placement for topology-aware collectives: where ranks physically
//! are.
//!
//! A [`HostMap`] records which host each global rank runs on, and a
//! [`Placement`] derived from it groups ranks by host locality.
//! `hierarchical.rs` consumes a `Placement`, so the intra-node ring is the
//! set of ranks that actually share a host (and thus a shared-memory
//! fabric), not whatever ranks happen to be adjacent in rank order.

use crate::error::CollectiveError;
use crate::hierarchical::ClusterShape;

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
}
