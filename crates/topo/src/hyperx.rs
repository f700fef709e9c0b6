//! HyperX (Ahn et al., SC'09) — Hamming graphs generalizing the Flattened
//! Butterfly. The diameter-2 members are 2-D: `K_a □ K_b`, i.e. an `a × b`
//! grid where every row and every column is a clique. Degree is
//! `a + b − 2`; the balanced square `a = b` maximizes routers per radix at
//! `≈ ((k+2)/2)²` — roughly 25% of the Moore bound, the low curve in Fig. 2.

use crate::Topology;
use pf_graph::GraphBuilder;

/// 2-D HyperX (Hamming graph `K_a □ K_b`) constructor.
pub enum HyperX {}

impl HyperX {
    /// Builds `K_a □ K_b` with `p` endpoints per router.
    pub fn new(a: u32, b: u32, p: usize) -> Topology {
        assert!(a >= 2 && b >= 2);
        let id = |i: u32, j: u32| i * b + j;
        let mut g = GraphBuilder::new((a * b) as usize);
        for i in 0..a {
            for j in 0..b {
                for j2 in (j + 1)..b {
                    g.add_edge(id(i, j), id(i, j2)); // row clique
                }
                for i2 in (i + 1)..a {
                    g.add_edge(id(i, j), id(i2, j)); // column clique
                }
            }
        }
        Topology::uniform(format!("HX({a}x{b},p={p})"), g.build(), p)
    }

    /// Balanced square HyperX of the largest size with degree ≤ `max_degree`.
    pub fn square_for_degree(max_degree: u32, p: usize) -> Topology {
        let a = (max_degree + 2) / 2;
        HyperX::new(a, a, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::bfs;

    #[test]
    fn hamming_structure() {
        let hx = HyperX::new(4, 5, 1);
        assert_eq!(hx.router_count(), 20);
        assert!(hx.graph().is_regular(7)); // 4+5-2
        assert_eq!(bfs::diameter(hx.graph()), Some(2));
    }

    #[test]
    fn square_maximizes_size() {
        let hx = HyperX::square_for_degree(16, 1);
        assert!(hx.graph().is_regular(16));
        assert_eq!(hx.router_count(), 81); // ((16+2)/2)²
    }

    #[test]
    fn rectangular_hyperx_degrees() {
        let hx = HyperX::new(3, 7, 2);
        assert_eq!(hx.router_count(), 21);
        assert_eq!(hx.total_endpoints(), 42);
        assert!(hx.graph().is_regular(8));
    }

    #[test]
    fn degenerate_2x2_is_cycle() {
        let hx = HyperX::new(2, 2, 1);
        assert!(hx.graph().is_regular(2));
        assert_eq!(bfs::diameter(hx.graph()), Some(2));
    }
}
