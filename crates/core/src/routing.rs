//! Minimal routing on PolarFly (paper §IV-D).
//!
//! `ER_q` has a *unique* minimal path between every router pair: one hop
//! when the vectors are orthogonal, otherwise two hops through the
//! normalized cross product. [`next_hop_minimal`] computes that next hop
//! algebraically in O(1), with no table; tests pin it against BFS
//! distances. The non-minimal algorithms of §VII (Valiant, Compact
//! Valiant, UGAL, UGAL-PF) are the simulator's `pf_sim::Routing`, which
//! takes every minimal hop from its route table's port
//! (`pf_sim::RouteTables::port`); on healthy `ER_q` that port is this
//! next hop, pinned by `tests/routing_parity.rs`.

use crate::er::PolarFly;

/// Algebraic minimal next hop from `cur` toward `dst` (`cur ≠ dst`):
/// `dst` itself when adjacent, otherwise the unique 2-hop intermediate.
pub fn next_hop_minimal(pf: &PolarFly, cur: u32, dst: u32) -> u32 {
    debug_assert_ne!(cur, dst);
    if pf.graph().has_edge(cur, dst) {
        dst
    } else {
        pf.intermediate(cur, dst)
            .expect("non-adjacent ER_q routers always share a unique intermediate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::bfs;

    /// Following `next_hop_minimal` from `s` reaches `d` along graph
    /// edges in exactly the BFS distance.
    #[test]
    fn table_matches_bfs_distances() {
        for q in [5u64, 7, 9] {
            let pf = PolarFly::new(q).unwrap();
            for s in 0..pf.router_count() as u32 {
                let from_s = bfs::bfs_distances(pf.graph(), s);
                for d in 0..pf.router_count() as u32 {
                    let mut cur = s;
                    let mut hops = 0u32;
                    while cur != d {
                        let next = next_hop_minimal(&pf, cur, d);
                        assert!(pf.graph().has_edge(cur, next), "q={q} {s}->{d}");
                        cur = next;
                        hops += 1;
                        assert!(hops <= 2, "q={q} {s}->{d}: more than 2 hops");
                    }
                    assert_eq!(hops, u32::from(from_s[d as usize]), "q={q} {s}->{d}");
                }
            }
        }
    }
}
