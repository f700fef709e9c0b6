//! Baseline interconnect topologies for the PolarFly evaluation (§VIII).
//!
//! Every network is one [`Topology`] value: a router graph, endpoints
//! per router, whether it is direct, PolarFly's algebra when the graph
//! is `ER_q`, and a fault schedule (empty for a healthy network). Each
//! module below is a constructor that returns one, built from scratch:
//!
//! * [`PolarFlyTopo`] — `ER_q` with `p` endpoints per router; the only
//!   network carrying the algebra ([`Topology::polarfly`]).
//! * [`slimfly`] — Slim Fly / McKay–Miller–Širáň graphs (`N = 2q²`,
//!   `k = (3q − δ)/2`), the most competitive diameter-2 rival.
//! * [`dragonfly`] — canonical Dragonfly (Kim et al.) with the palm-tree
//!   global-link arrangement; the paper's balanced DF1 and radix-matched
//!   DF2 variants.
//! * [`jellyfish`] — random regular graph baseline.
//! * [`fattree`] — 3-level folded-Clos fat tree, the one indirect
//!   network (hosts on edge switches only).
//! * [`hyperx`] — 2-D Hamming graphs (generalized Flattened Butterfly).
//! * [`GraphTopo`] — any pre-built graph (expanded PolarFly, Fig. 11).
//! * [`named`] — Petersen and Hoffman–Singleton, the only diameter-2
//!   Moore-bound-achieving graphs (Fig. 2 reference points).
//! * [`feasibility`] — the qualitative Table I feasibility matrix.
//! * [`transient`] — the fault model, [`Topology::with_faults`]: the
//!   same network under a [`pf_graph::FaultSchedule`] of fail/repair
//!   windows, validated to keep the live network connected at every
//!   fault state (a [`TopoError`] otherwise). A static failure set is a
//!   schedule whose windows open at cycle 0 and never repair; any later
//!   window drives mid-run mask flips and staged route re-convergence in
//!   the simulator.

// Each topology type is a field-less constructor namespace whose `new`
// returns the one `Topology` value.
#![expect(
    clippy::new_ret_no_self,
    reason = "topology types are constructor namespaces for `Topology`"
)]

pub mod dragonfly;
pub mod fattree;
pub mod feasibility;
pub mod hyperx;
pub mod jellyfish;
pub mod named;
pub mod slimfly;
mod topology;
pub mod transient;

pub use dragonfly::Dragonfly;
pub use fattree::FatTree;
pub use hyperx::HyperX;
pub use jellyfish::Jellyfish;
pub use slimfly::SlimFly;
pub use topology::{GraphTopo, PolarFlyTopo, Topology};
pub use transient::TopoError;

/// Two-level Orthogonal Fat Tree (Kathareios et al., SC'15; Table I row
/// `OFT`). Leaf switches are the points and spine switches the lines of
/// `PG(2, q)`, wired by incidence: the graph is exactly `B(q)` as built by
/// [`polarfly::bipartite::IncidenceGraph`], so there is no separate OFT
/// type. Hosts attach to leaves only, `q + 1` per leaf.
#[cfg(test)]
mod oft {
    mod tests {
        use pf_graph::bfs;
        use polarfly::bipartite::IncidenceGraph;
        use polarfly::PolarFly;

        #[test]
        fn structure_counts() {
            for q in [3u64, 4, 5, 7] {
                let oft = IncidenceGraph::new(q).unwrap();
                let n = (q * q + q + 1) as usize;
                assert_eq!(oft.side_count(), n);
                assert_eq!(oft.graph().vertex_count(), 2 * n);
                assert!(oft.graph().is_regular((q + 1) as usize));
                // Indirect: every link joins a leaf to a spine, so spines
                // (the only host-free switches) carry all leaf-to-leaf
                // traffic.
                for (u, v) in oft.graph().edges() {
                    assert!((u as usize) < n && (v as usize) >= n, "{u}-{v}");
                }
            }
        }

        #[test]
        fn leaf_pairs_share_exactly_one_spine() {
            // The "orthogonality" that gives host-level diameter 2: any two
            // leaves have exactly one common spine (two points span one line).
            let oft = IncidenceGraph::new(5).unwrap();
            let g = oft.graph();
            let n = oft.side_count() as u32;
            for a in 0..n {
                for b in (a + 1)..n {
                    let common = g
                        .neighbors(a)
                        .iter()
                        .filter(|&&s| g.neighbors(b).binary_search(&s).is_ok())
                        .count();
                    assert_eq!(common, 1, "leaves {a},{b}");
                }
            }
        }

        #[test]
        fn leaf_to_leaf_distance_is_two() {
            let oft = IncidenceGraph::new(4).unwrap();
            let n = oft.side_count() as u32;
            for a in 0..n {
                let from_a = bfs::bfs_distances(oft.graph(), a);
                for b in 0..n {
                    if a != b {
                        assert_eq!(from_a[b as usize], 2);
                    }
                }
            }
            // Whole switch graph (incl. spine-to-spine) has diameter 3.
            assert_eq!(bfs::diameter(oft.graph()), Some(3));
        }

        #[test]
        fn twice_the_switches_of_polarfly() {
            // §III's cost argument: OFT needs 2x the switches of the polarity
            // quotient at the same q, and a second (host-free) chip type.
            let oft = IncidenceGraph::new(7).unwrap();
            let pf = PolarFly::new(7).unwrap();
            assert_eq!(oft.graph().vertex_count(), 2 * pf.router_count());
            let spines = oft.graph().vertex_count() - oft.side_count();
            assert_eq!(spines, pf.router_count());
        }
    }
}
