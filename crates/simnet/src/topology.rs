//! Cluster topology: nodes, their network resources, the fabric connecting
//! them, and the mapping of ranks (processes) onto nodes.
//!
//! Two fabric models are supported:
//!
//! * [`Fabric::FullBisection`] — the fabric is assumed non-blocking, as is
//!   standard for flow-level models of full-bisection fat trees (Stampede2's
//!   Omni-Path fat tree with six core switches behaves this way for the
//!   paper's job sizes): only the NICs (one transmit and one receive resource
//!   per node) and the intra-node memory channel constrain transfers.
//! * [`Fabric::FatTree`] — a three-level fat tree (leaf, spine, core) with
//!   explicit per-direction link resources and deterministic d-mod-k routing,
//!   so inter-pod traffic contends on real uplinks. Use this to study
//!   multi-tenant interference and oversubscription.
//!
//! The `FullBisection` path is bit-compatible with the historic model (same
//! resources registered in the same order), so existing committed results do
//! not move when the fabric field is left at its default.

use crate::flow::{FlowNet, ResourceId, ResourceKind};
use crate::profile::MachineProfile;

/// The switching fabric connecting the nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Fabric {
    /// Non-blocking fabric: only NICs and memory channels constrain
    /// transfers. The historic default.
    FullBisection,
    /// Three-level fat tree. Hosts attach to leaf switches, leaves to every
    /// spine of their pod, spines to core switches. Routing is deterministic
    /// d-mod-k (the destination address selects the spine and core), which is
    /// how static ECMP hashing is usually modeled.
    FatTree {
        /// Number of pods.
        pods: usize,
        /// Leaf switches per pod.
        leaves_per_pod: usize,
        /// Hosts attached to each leaf.
        hosts_per_leaf: usize,
        /// Spine switches per pod (each leaf has one up/down link pair to
        /// each spine of its pod).
        spines_per_pod: usize,
        /// Core switches reachable from each spine (each spine has one
        /// up/down link pair to each of its cores).
        cores_per_spine: usize,
        /// Capacity of every fabric link, bytes/second per direction.
        link_bw: f64,
    },
}

impl Fabric {
    /// Number of host slots this fabric provides (`None` = unbounded, for
    /// the non-blocking fabric).
    pub fn host_slots(&self) -> Option<usize> {
        match self {
            Fabric::FullBisection => None,
            Fabric::FatTree {
                pods,
                leaves_per_pod,
                hosts_per_leaf,
                ..
            } => Some(pods * leaves_per_pod * hosts_per_leaf),
        }
    }
}

/// Static description of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Hardware/software constants.
    pub profile: MachineProfile,
    /// The switching fabric. Defaults to [`Fabric::FullBisection`].
    pub fabric: Fabric,
}

impl ClusterSpec {
    /// A cluster of `nodes` identical nodes with the given profile on a
    /// non-blocking fabric.
    pub fn new(nodes: usize, profile: MachineProfile) -> ClusterSpec {
        assert!(nodes >= 1, "cluster needs at least one node");
        ClusterSpec {
            nodes,
            profile,
            fabric: Fabric::FullBisection,
        }
    }

    /// Replace the fabric. The fabric must provide at least `self.nodes`
    /// host slots; nodes are assigned to slots in order (host `n` sits under
    /// leaf `n / hosts_per_leaf`).
    pub fn with_fabric(mut self, fabric: Fabric) -> ClusterSpec {
        if let Some(slots) = fabric.host_slots() {
            assert!(
                self.nodes <= slots,
                "fabric has {slots} host slots but the cluster has {} nodes",
                self.nodes
            );
        }
        self.fabric = fabric;
        self
    }

    /// Register this cluster's resources into a [`FlowNet`] and return the
    /// lookup table. Per-node NIC/memory resources are registered first (in
    /// the same order as the historic non-blocking model), then any fabric
    /// link resources.
    pub fn build_resources(&self, net: &mut FlowNet) -> ClusterResources {
        let mut tx = Vec::with_capacity(self.nodes);
        let mut rx = Vec::with_capacity(self.nodes);
        let mut mem = Vec::with_capacity(self.nodes);
        for node in 0..self.nodes {
            let n = node as u32;
            tx.push(net.add_resource_kind(self.profile.nic_bw, ResourceKind::NicTx(n)));
            rx.push(net.add_resource_kind(self.profile.nic_bw, ResourceKind::NicRx(n)));
            mem.push(net.add_resource_kind(self.profile.node_mem_bw, ResourceKind::Mem(n)));
        }
        let links = match self.fabric {
            Fabric::FullBisection => LinkTable::None,
            Fabric::FatTree {
                pods,
                leaves_per_pod,
                hosts_per_leaf,
                spines_per_pod,
                cores_per_spine,
                link_bw,
            } => {
                assert!(
                    pods >= 1 && leaves_per_pod >= 1 && hosts_per_leaf >= 1 && spines_per_pod >= 1,
                    "degenerate fat tree"
                );
                let mut next = 0u32;
                let mut link = |net: &mut FlowNet| {
                    let id = net.add_resource_kind(link_bw, ResourceKind::Link(next));
                    next += 1;
                    id
                };
                // leaf_up/leaf_down[pod][leaf][spine]
                let nleaf = pods * leaves_per_pod * spines_per_pod;
                let mut leaf_up = Vec::with_capacity(nleaf);
                let mut leaf_down = Vec::with_capacity(nleaf);
                for _ in 0..nleaf {
                    leaf_up.push(link(net));
                }
                for _ in 0..nleaf {
                    leaf_down.push(link(net));
                }
                // spine_up/spine_down[pod][spine][core]
                let nspine = pods * spines_per_pod * cores_per_spine;
                let mut spine_up = Vec::with_capacity(nspine);
                let mut spine_down = Vec::with_capacity(nspine);
                for _ in 0..nspine {
                    spine_up.push(link(net));
                }
                for _ in 0..nspine {
                    spine_down.push(link(net));
                }
                LinkTable::FatTree {
                    leaves_per_pod,
                    hosts_per_leaf,
                    spines_per_pod,
                    cores_per_spine,
                    leaf_up,
                    leaf_down,
                    spine_up,
                    spine_down,
                }
            }
        };
        ClusterResources { tx, rx, mem, links }
    }
}

/// Fabric link lookup tables, internal to [`ClusterResources`].
#[derive(Debug, Clone)]
enum LinkTable {
    /// Non-blocking fabric: no link resources.
    None,
    /// Fat-tree links.
    FatTree {
        leaves_per_pod: usize,
        hosts_per_leaf: usize,
        spines_per_pod: usize,
        cores_per_spine: usize,
        leaf_up: Vec<ResourceId>,
        leaf_down: Vec<ResourceId>,
        spine_up: Vec<ResourceId>,
        spine_down: Vec<ResourceId>,
    },
}

/// Resource ids for each node plus fabric links, produced by
/// [`ClusterSpec::build_resources`].
#[derive(Debug, Clone)]
pub struct ClusterResources {
    tx: Vec<ResourceId>,
    rx: Vec<ResourceId>,
    mem: Vec<ResourceId>,
    links: LinkTable,
}

impl ClusterResources {
    /// Resources consumed by a transfer from `src` node to `dst` node, plus
    /// whether it is intra-node. For link-modeling fabrics the vector also
    /// contains every fabric link on the deterministic route.
    pub fn path(&self, src: usize, dst: usize) -> (Vec<ResourceId>, bool) {
        if src == dst {
            return (vec![self.mem[src]], true);
        }
        match &self.links {
            LinkTable::None => (vec![self.tx[src], self.rx[dst]], false),
            LinkTable::FatTree {
                leaves_per_pod,
                hosts_per_leaf,
                spines_per_pod,
                cores_per_spine,
                leaf_up,
                leaf_down,
                spine_up,
                spine_down,
            } => {
                let (lpp, hpl, spp, cps) = (
                    *leaves_per_pod,
                    *hosts_per_leaf,
                    *spines_per_pod,
                    *cores_per_spine,
                );
                let (sp, sl) = (src / (lpp * hpl), (src / hpl) % lpp);
                let (dp, dl) = (dst / (lpp * hpl), (dst / hpl) % lpp);
                let mut path = vec![self.tx[src]];
                if (sp, sl) != (dp, dl) {
                    // d-mod-k: the destination address picks the spine (and
                    // core, if the route leaves the pod).
                    let s = dst % spp;
                    path.push(leaf_up[(sp * lpp + sl) * spp + s]);
                    if sp != dp {
                        let c = (dst / spp) % cps;
                        path.push(spine_up[(sp * spp + s) * cps + c]);
                        path.push(spine_down[(dp * spp + s) * cps + c]);
                    }
                    path.push(leaf_down[(dp * lpp + dl) * spp + s]);
                }
                path.push(self.rx[dst]);
                (path, false)
            }
        }
    }

    /// NIC transmit resource of a node.
    pub fn tx(&self, node: usize) -> ResourceId {
        self.tx[node]
    }

    /// NIC receive resource of a node.
    pub fn rx(&self, node: usize) -> ResourceId {
        self.rx[node]
    }

    /// Intra-node memory channel of a node.
    pub fn mem(&self, node: usize) -> ResourceId {
        self.mem[node]
    }

    /// Number of fabric link resources (zero for the non-blocking fabric).
    pub fn num_links(&self) -> usize {
        match &self.links {
            LinkTable::None => 0,
            LinkTable::FatTree {
                leaf_up,
                leaf_down,
                spine_up,
                spine_down,
                ..
            } => leaf_up.len() + leaf_down.len() + spine_up.len() + spine_down.len(),
        }
    }
}

/// How [`NodeMap::grouped`] spreads logical nodes over topology groups
/// (fat-tree pods).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupPlacement {
    /// Fill each group completely before starting the next: logical node `k`
    /// is physical node `k`. Collectives see mostly intra-group traffic.
    Block,
    /// Deal logical nodes across groups like cards: logical node `k` is slot
    /// `k / ngroups` of group `k % ngroups`. Collectives see mostly
    /// inter-group traffic — the adversarial placement.
    RoundRobin,
}

/// Mapping of ranks to nodes.
///
/// The paper uses the "natural" assignment: MPI ranks on a node are numbered
/// consecutively (`node = rank / ppn`), with ranks assigned row by row in one
/// plane of the process mesh and then plane by plane (§V-D).
#[derive(Debug, Clone)]
pub struct NodeMap {
    node_of: Vec<usize>,
    nodes: usize,
}

impl NodeMap {
    /// Consecutive ("natural") placement: ranks `[k·ppn, (k+1)·ppn)` live on
    /// node `k`. The node count is `ceil(nranks / ppn)`.
    pub fn natural(nranks: usize, ppn: usize) -> NodeMap {
        assert!(nranks >= 1 && ppn >= 1);
        let node_of = (0..nranks).map(|r| r / ppn).collect::<Vec<_>>();
        let nodes = nranks.div_ceil(ppn);
        NodeMap { node_of, nodes }
    }

    /// Round-robin placement across `nodes` nodes (rank r → node r % nodes).
    pub fn round_robin(nranks: usize, nodes: usize) -> NodeMap {
        assert!(nranks >= 1 && nodes >= 1);
        NodeMap {
            node_of: (0..nranks).map(|r| r % nodes).collect(),
            nodes,
        }
    }

    /// Explicit placement.
    pub fn custom(node_of: Vec<usize>) -> NodeMap {
        assert!(!node_of.is_empty());
        let nodes = node_of.iter().copied().max().unwrap_or(0) + 1;
        NodeMap { node_of, nodes }
    }

    /// Placement over a grouped topology (fat-tree pods of
    /// `nodes_per_group = leaves_per_pod · hosts_per_leaf` hosts).
    ///
    /// Ranks fill logical nodes consecutively (`ppn` per node, as in
    /// [`NodeMap::natural`]); `placement` then decides which *physical* node
    /// each logical node occupies: [`GroupPlacement::Block`] packs groups one
    /// after another, [`GroupPlacement::RoundRobin`] deals consecutive
    /// logical nodes to different groups.
    pub fn grouped(
        nranks: usize,
        ppn: usize,
        nodes_per_group: usize,
        ngroups: usize,
        placement: GroupPlacement,
    ) -> NodeMap {
        assert!(nranks >= 1 && ppn >= 1 && nodes_per_group >= 1 && ngroups >= 1);
        let logical_nodes = nranks.div_ceil(ppn);
        assert!(
            logical_nodes <= nodes_per_group * ngroups,
            "{logical_nodes} nodes do not fit in {ngroups} groups of {nodes_per_group}"
        );
        let phys = |k: usize| match placement {
            GroupPlacement::Block => k,
            GroupPlacement::RoundRobin => (k % ngroups) * nodes_per_group + k / ngroups,
        };
        let node_of: Vec<usize> = (0..nranks).map(|r| phys(r / ppn)).collect();
        let nodes = node_of.iter().copied().max().unwrap_or(0) + 1;
        NodeMap { node_of, nodes }
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.node_of.len()
    }

    /// Number of nodes actually used.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Whether two ranks share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of[a] == self.node_of[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_mapping_is_consecutive() {
        let m = NodeMap::natural(10, 4);
        assert_eq!(m.nodes(), 3);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(3), 0);
        assert_eq!(m.node_of(4), 1);
        assert_eq!(m.node_of(9), 2);
        assert!(m.same_node(4, 7));
        assert!(!m.same_node(3, 4));
    }

    #[test]
    fn round_robin_mapping() {
        let m = NodeMap::round_robin(6, 4);
        assert_eq!(m.node_of(5), 1);
        assert_eq!(m.nodes(), 4);
    }

    #[test]
    fn custom_mapping_counts_nodes() {
        let m = NodeMap::custom(vec![0, 2, 2, 1]);
        assert_eq!(m.nodes(), 3);
        assert_eq!(m.nranks(), 4);
    }

    #[test]
    fn resources_distinguish_intra_and_inter() {
        let spec = ClusterSpec::new(3, MachineProfile::test_profile());
        let mut net = FlowNet::new();
        let res = spec.build_resources(&mut net);
        assert_eq!(net.num_resources(), 9);
        let (inter, intra) = res.path(0, 2);
        assert!(!intra);
        assert_eq!(inter, vec![res.tx(0), res.rx(2)]);
        let (local, intra) = res.path(1, 1);
        assert!(intra);
        assert_eq!(local, vec![res.mem(1)]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        ClusterSpec::new(0, MachineProfile::test_profile());
    }

    fn small_fat_tree() -> Fabric {
        // 2 pods × 2 leaves × 2 hosts = 8 hosts, 2 spines/pod, 2 cores/spine.
        Fabric::FatTree {
            pods: 2,
            leaves_per_pod: 2,
            hosts_per_leaf: 2,
            spines_per_pod: 2,
            cores_per_spine: 2,
            link_bw: 10e9,
        }
    }

    #[test]
    fn fat_tree_paths_use_expected_hops() {
        let spec =
            ClusterSpec::new(8, MachineProfile::test_profile()).with_fabric(small_fat_tree());
        let mut net = FlowNet::new();
        let res = spec.build_resources(&mut net);
        // 8 nodes × 3 + links: leaf 2·2·2 per direction = 16, spine 2·2·2
        // per direction = 16.
        assert_eq!(res.num_links(), 32);
        assert_eq!(net.num_resources(), 24 + 32);

        // Same leaf (nodes 0 and 1 under pod 0, leaf 0): NICs only.
        let (p, intra) = res.path(0, 1);
        assert!(!intra);
        assert_eq!(p.len(), 2);

        // Same pod, different leaf (0 → 2): tx, leaf-up, leaf-down, rx.
        let (p, _) = res.path(0, 2);
        assert_eq!(p.len(), 4);

        // Different pod (0 → 4): tx, leaf-up, spine-up, spine-down,
        // leaf-down, rx.
        let (p, _) = res.path(0, 4);
        assert_eq!(p.len(), 6);

        // Intra-node stays memory-only.
        let (p, intra) = res.path(3, 3);
        assert!(intra);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn fat_tree_routes_are_deterministic_and_destination_hashed() {
        let spec =
            ClusterSpec::new(8, MachineProfile::test_profile()).with_fabric(small_fat_tree());
        let mut net = FlowNet::new();
        let res = spec.build_resources(&mut net);
        // Same (src, dst) twice → identical route.
        assert_eq!(res.path(1, 6), res.path(1, 6));
        // Different destinations under the same remote leaf may still pick
        // different spines (d-mod-k: spine = dst % spines_per_pod).
        let (p6, _) = res.path(1, 6);
        let (p7, _) = res.path(1, 7);
        assert_ne!(p6[1], p7[1], "dst 6 and 7 should hash to different spines");
    }

    #[test]
    fn fabric_rejects_overfull_cluster() {
        let result = std::panic::catch_unwind(|| {
            ClusterSpec::new(9, MachineProfile::test_profile()).with_fabric(small_fat_tree())
        });
        assert!(result.is_err(), "8-slot fabric must reject 9 nodes");
    }

    #[test]
    fn grouped_block_packs_groups() {
        // 8 logical nodes (16 ranks, ppn 2) over 4 groups of 2 nodes.
        let m = NodeMap::grouped(16, 2, 2, 4, GroupPlacement::Block);
        assert_eq!(m.nodes(), 8);
        // Ranks 0..4 land in group 0 (nodes 0, 1).
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(3), 1);
        assert_eq!(m.node_of(4), 2);
    }

    #[test]
    fn grouped_round_robin_deals_across_groups() {
        let m = NodeMap::grouped(16, 2, 2, 4, GroupPlacement::RoundRobin);
        // Logical node k → group k % 4, slot k / 4.
        assert_eq!(m.node_of(0), 0); // logical 0 → group 0 slot 0 → phys 0
        assert_eq!(m.node_of(2), 2); // logical 1 → group 1 slot 0 → phys 2
        assert_eq!(m.node_of(4), 4); // logical 2 → group 2 slot 0 → phys 4
        assert_eq!(m.node_of(8), 1); // logical 4 → group 0 slot 1 → phys 1
        assert_eq!(m.nodes(), 8);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn grouped_rejects_overflow() {
        NodeMap::grouped(100, 1, 2, 4, GroupPlacement::Block);
    }

    #[test]
    fn fat_tree_uplink_contention_is_modeled() {
        // Two hosts on the same leaf sending to hosts on another pod via the
        // same spine must share that leaf's uplink.
        let spec =
            ClusterSpec::new(8, MachineProfile::test_profile()).with_fabric(Fabric::FatTree {
                pods: 2,
                leaves_per_pod: 2,
                hosts_per_leaf: 2,
                spines_per_pod: 1,
                cores_per_spine: 1,
                link_bw: 1e9,
            });
        let mut net = FlowNet::new();
        let res = spec.build_resources(&mut net);
        let (pa, _) = res.path(0, 4);
        let (pb, _) = res.path(1, 5);
        // Both routes traverse leaf 0's single uplink.
        assert_eq!(pa[1], pb[1]);
        use crate::flow::FlowSpec;
        let fa = net.add(FlowSpec {
            resources: pa,
            cap: 100e9,
            bytes: 1e6,
        });
        let fb = net.add(FlowSpec {
            resources: pb,
            cap: 100e9,
            bytes: 1e6,
        });
        assert!((net.rate(fa) - 0.5e9).abs() < 1e3);
        assert!((net.rate(fb) - 0.5e9).abs() < 1e3);
    }
}
