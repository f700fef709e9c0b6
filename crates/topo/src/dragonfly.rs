//! Dragonfly (Kim, Dally, Scott, Abts — ISCA'08).
//!
//! Parameters `(a, h, p)`: groups of `a` routers, fully connected inside a
//! group; each router drives `h` global links and `p` endpoints. With the
//! maximal group count `g = a·h + 1` every group pair is joined by exactly
//! one global link, giving diameter 3 (local–global–local). Network radix
//! is `a − 1 + h`.
//!
//! Global links use the *palm-tree* arrangement (as in BookSim): global
//! channel `i ∈ [0, a·h)` of group `G` attaches to router `i / h`, port
//! `i mod h`, and runs to group `(G + i + 1) mod g`, where it lands on that
//! group's channel `a·h − 1 − i`. The arrangement is self-consistent (the
//! two endpoint formulas agree), which the tests verify structurally.
//!
//! The paper's variants: **DF1** balanced `(a, h, p) = (12, 6, 6)` — 876
//! routers, radix 17; **DF2** radix/scale-matched `(6, 27, 10)` — 978
//! routers, radix 32 (throughput-limited by its thin intra-group links,
//! which Fig. 8 shows).

use crate::Topology;
use pf_graph::{Csr, GraphBuilder};

/// Dragonfly constructor.
pub enum Dragonfly {}

impl Dragonfly {
    /// Builds a Dragonfly with `a` routers per group, `h` global links per
    /// router, `p` endpoints per router, and the maximal `g = a·h + 1`
    /// groups.
    pub fn new(a: u32, h: u32, p: usize) -> Topology {
        let name = format!("DF(a={a},h={h},p={p})");
        Topology::uniform(name, graph(a, h), p)
    }

    /// The paper's balanced DF1: `a = 12, h = 6, p = 6` (876 routers).
    pub fn df1() -> Topology {
        Dragonfly::new(12, 6, 6)
    }

    /// The paper's radix/scale-matched DF2: `a = 6, h = 27, p = 10`
    /// (978 routers, radix 32).
    pub fn df2() -> Topology {
        Dragonfly::new(6, 27, 10)
    }
}

/// The router graph of `(a, h)`: `a·h + 1` groups of `a` routers.
fn graph(a: u32, h: u32) -> Csr {
    assert!(a >= 1 && h >= 1);
    let groups = a * h + 1;
    let n = (groups * a) as usize;
    let id = |g: u32, r: u32| g * a + r;
    let mut b = GraphBuilder::new(n);
    // Intra-group cliques.
    for g in 0..groups {
        for r1 in 0..a {
            for r2 in (r1 + 1)..a {
                b.add_edge(id(g, r1), id(g, r2));
            }
        }
    }
    // Palm-tree global links: channel i of group g → group g+i+1,
    // landing on channel a·h−1−i there. Every link is visited from both
    // ends; `GraphBuilder::build` deduplicates the mirrored copies.
    let ah = a * h;
    for g in 0..groups {
        for i in 0..ah {
            let tg = (g + i + 1) % groups;
            let ti = ah - 1 - i;
            b.add_edge(id(g, i / h), id(tg, ti / h));
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::bfs;

    #[test]
    fn small_dragonfly_structure() {
        let df = Dragonfly::new(4, 2, 2);
        assert_eq!(df.router_count(), 36); // 9 groups of 4
        assert!(df.graph().is_regular(5)); // a−1+h = 5
        assert_eq!(bfs::diameter(df.graph()), Some(3));
    }

    #[test]
    fn every_group_pair_has_exactly_one_global_link() {
        let df = Dragonfly::new(4, 2, 2);
        let g = 9; // a·h + 1
        let mut counts = vec![0u32; (g * g) as usize];
        for (u, v) in df.graph().edges() {
            let (gu, gv) = (u / 4, v / 4); // groups of a = 4
            if gu != gv {
                let (a, b) = (gu.min(gv), gu.max(gv));
                counts[(a * g + b) as usize] += 1;
            }
        }
        for g1 in 0..g {
            for g2 in (g1 + 1)..g {
                assert_eq!(counts[(g1 * g + g2) as usize], 1, "groups {g1},{g2}");
            }
        }
    }

    #[test]
    fn every_router_has_h_global_links() {
        let df = Dragonfly::new(6, 3, 3);
        for r in 0..df.router_count() as u32 {
            let global = df
                .graph()
                .neighbors(r)
                .iter()
                .filter(|&&w| w / 6 != r / 6) // groups of a = 6
                .count();
            assert_eq!(global, 3, "router {r}");
        }
    }

    #[test]
    fn df1_matches_table_v() {
        let df = Dragonfly::df1();
        assert_eq!(df.router_count(), 876);
        assert_eq!(df.graph().edge_count(), 876 * 17 / 2);
        assert!(df.graph().is_regular(17));
        assert_eq!(bfs::diameter(df.graph()), Some(3));
    }

    #[test]
    fn df2_matches_table_v() {
        let df = Dragonfly::df2();
        assert_eq!(df.router_count(), 978);
        assert_eq!(df.graph().edge_count(), 978 * 32 / 2);
        assert!(df.graph().is_regular(32));
    }
}
