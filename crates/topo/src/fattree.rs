//! Three-level folded-Clos fat tree (Leiserson'85 as deployed in practice).
//!
//! The Table V configuration `n = 3, k = 18` is a 3-stage folded Clos built
//! from radix-`2k` switches: `k²` edge, `k²` aggregation, and `k²` core
//! switches (the core uses only `k` of its ports), `3k² = 972` switches
//! total for `k = 18`. Each of the `k` pods holds `k` edge and `k`
//! aggregation switches in a complete bipartite pattern; aggregation switch
//! `j` of every pod connects to the core block `j·k … j·k + k − 1`. Hosts
//! (`k` per edge switch) attach only at the edge level, making this the one
//! *indirect* topology in the comparison.
//!
//! Nearest-common-ancestor (NCA) routing corresponds exactly to adaptive
//! ECMP over shortest paths in this graph: up-hops have `k` equal-cost
//! choices, down-paths are unique.

use crate::Topology;
use pf_graph::GraphBuilder;

/// 3-level folded-Clos fat tree constructor.
pub enum FatTree {}

impl FatTree {
    /// Builds the 3-level folded Clos with half-radix `k` (switch radix
    /// `2k`): `k` pods, `3k²` switches, `k³` hosts — `k` on each edge
    /// switch, none elsewhere, so the network is indirect.
    pub fn new(k: u32) -> Topology {
        assert!(k >= 2);
        let n = 3 * k * k;
        let mut b = GraphBuilder::new(n as usize);
        let edge = |pod: u32, i: u32| pod * k + i;
        let agg = |pod: u32, j: u32| k * k + pod * k + j;
        let core = |j: u32, c: u32| 2 * k * k + j * k + c;
        for pod in 0..k {
            for i in 0..k {
                for j in 0..k {
                    b.add_edge(edge(pod, i), agg(pod, j));
                }
            }
            for j in 0..k {
                for c in 0..k {
                    b.add_edge(agg(pod, j), core(j, c));
                }
            }
        }
        // Switches 0..k² are the edge level.
        let endpoints = (0..n).map(|r| if r < k * k { k } else { 0 }).collect();
        Topology::new(format!("FT(n=3,k={k})"), b.build(), endpoints, false)
    }

    /// The Table V instance: `k = 18` → 972 switches, radix 36, 5 832 hosts.
    pub fn table_v() -> Topology {
        FatTree::new(18)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::bfs;

    #[test]
    fn small_fat_tree_structure() {
        let ft = FatTree::new(3);
        assert_eq!(ft.router_count(), 27);
        // Edge switches (0..k²) and cores (2k²..) have degree k,
        // aggregation switches 2k; hosts sit on the edge level only.
        for r in 0..ft.router_count() as u32 {
            let agg = (9..18).contains(&r);
            assert_eq!(ft.graph().degree(r), if agg { 6 } else { 3 });
            assert_eq!(ft.endpoints()[r as usize], if r < 9 { 3 } else { 0 });
        }
        assert!(ft.graph().is_connected());
    }

    #[test]
    fn edge_to_edge_distances() {
        let ft = FatTree::new(4);
        for a in 0..16u32 {
            let from_a = bfs::bfs_distances(ft.graph(), a);
            for b in 0..16u32 {
                if a == b {
                    continue;
                }
                // Edge switch `e` sits in pod `e / k`.
                let expect = if a / 4 == b / 4 { 2 } else { 4 };
                assert_eq!(u32::from(from_a[b as usize]), expect, "edge {a}->{b}");
            }
        }
    }

    #[test]
    fn table_v_configuration() {
        let ft = FatTree::table_v();
        assert_eq!(ft.router_count(), 972);
        assert_eq!(ft.total_endpoints(), 18 * 18 * 18);
        assert_eq!(ft.host_routers().len(), 324);
        assert!(!ft.is_direct());
        assert_eq!(bfs::diameter(ft.graph()), Some(4));
    }

    #[test]
    fn up_paths_have_k_way_ecmp() {
        // Every edge switch reaches any other pod's edge switch through k
        // distinct aggregation choices (the NCA diversity the simulator's
        // adaptive routing exploits).
        let ft = FatTree::new(3);
        let g = ft.graph();
        let a = 0u32; // edge switch, pod 0
        let b = 8u32; // edge switch, pod 2
        let to_b = bfs::bfs_distances(g, b);
        let choices = g
            .neighbors(a)
            .iter()
            .filter(|&&w| to_b[w as usize] + 1 == to_b[a as usize])
            .count();
        assert_eq!(choices, 3);
    }
}
