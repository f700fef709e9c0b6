//! Analytic (fluid) channel-load model.
//!
//! Deterministic minimal routing admits an exact steady-state analysis:
//! accumulate each source–destination flow along its route and the
//! saturation load is the reciprocal of the most loaded link. The paper's
//! §VIII observations — tornado/permutation saturating at `1/p` under MIN,
//! uniform saturating near `k/(p·H̄)` — drop out of this model directly.
//!
//! The model serves two purposes: (1) it validates the cycle-accurate
//! engine (the engine must saturate at `η ×` the fluid bound, where `η` is
//! its allocator efficiency; `tests/spectral_and_models.rs` pins the band),
//! and (2) it gives instant capacity estimates for design exploration
//! where flit-level simulation would be overkill.

use crate::router::PortMap;
use crate::tables::RouteTables;
use crate::traffic::DestMap;
use pf_topo::Topology;

/// Fluid-model analysis of one (topology, pattern) pair under MIN routing.
#[derive(Debug, Clone)]
pub struct FluidAnalysis {
    /// Mean directed-link load at offered load 1.0 (flits/cycle/link).
    pub mean_link_load: f64,
    /// Maximum directed-link load at offered load 1.0.
    pub max_link_load: f64,
    /// Predicted saturation throughput: `min(1, 1/max_link_load)`.
    pub saturation: f64,
    /// Load imbalance `max/mean` (1.0 = perfectly balanced channels).
    pub imbalance: f64,
}

/// Computes the fluid analysis. Flows follow the deterministic next-hop
/// table's ports; `Uniform` spreads each host's `p` flits/cycle over all
/// other hosts, `Fixed` concentrates them on the pattern destination. A
/// pair the tables cannot route (a disconnected graph) carries no flow.
pub fn analyze(topo: &Topology, tables: &RouteTables, dests: &DestMap) -> FluidAnalysis {
    let (hosts, endpoints) = (topo.host_routers(), topo.endpoints());
    let g = tables.graph();
    let geom = PortMap::build(g);
    // Load per directed link, indexed by the sender's port.
    let mut link_load = vec![0.0; geom.num_ports()];
    let route_flow = |s: u32, d: u32, rate: f64, link_load: &mut [f64]| {
        let mut cur = s;
        while let Some(i) = tables.port(cur, d) {
            link_load[geom.tx(cur, i) as usize] += rate;
            cur = g.neighbors(cur)[i];
        }
    };
    match dests {
        DestMap::Uniform { hosts: hs } => {
            for &s in &hosts {
                let rate = f64::from(endpoints[s as usize]) / (hs.len() - 1) as f64;
                for &d in hs {
                    if d != s {
                        route_flow(s, d, rate, &mut link_load);
                    }
                }
            }
        }
        DestMap::Fixed { dest } => {
            for &s in &hosts {
                let d = dest[s as usize];
                if d != u32::MAX && d != s {
                    route_flow(s, d, f64::from(endpoints[s as usize]), &mut link_load);
                }
            }
        }
    }
    // Count every directed link, including idle ones, in the mean.
    let directed_links = 2.0 * topo.graph().edge_count() as f64;
    let total: f64 = link_load.iter().sum();
    let max = link_load.iter().copied().fold(0.0, f64::max);
    let mean = total / directed_links;
    FluidAnalysis {
        mean_link_load: mean,
        max_link_load: max,
        saturation: if max > 0.0 { (1.0 / max).min(1.0) } else { 1.0 },
        imbalance: if mean > 0.0 { max / mean } else { 1.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{resolve, TrafficPattern};
    use pf_topo::PolarFlyTopo;

    #[test]
    fn tornado_min_saturates_at_one_over_p() {
        // All p endpoint flows of a router share one minimal route.
        let p = 4usize;
        let topo = PolarFlyTopo::new(7, p).unwrap();
        let tables = RouteTables::build(topo.graph(), 1);
        let dests = resolve(
            TrafficPattern::Tornado,
            topo.graph(),
            &topo.host_routers(),
            1,
        );
        let a = analyze(&topo, &tables, &dests);
        assert!(a.max_link_load >= p as f64, "max load {}", a.max_link_load);
        assert!(a.saturation <= 1.0 / p as f64 + 1e-9);
    }

    #[test]
    fn uniform_min_on_polarfly_is_nearly_balanced() {
        // Unique shortest paths + near-symmetric structure: fluid
        // saturation ≈ 1.0 with tiny imbalance (the measured basis for the
        // paper's "very high saturation under random traffic").
        let topo = PolarFlyTopo::balanced(13).unwrap();
        let tables = RouteTables::build(topo.graph(), 1);
        let dests = resolve(
            TrafficPattern::Uniform,
            topo.graph(),
            &topo.host_routers(),
            1,
        );
        let a = analyze(&topo, &tables, &dests);
        assert!(a.imbalance < 1.1, "imbalance {}", a.imbalance);
        assert!(a.saturation > 0.9, "saturation {}", a.saturation);
    }

    #[test]
    fn perm1hop_concentrates_exactly_p_on_one_link() {
        let p = 3usize;
        let topo = PolarFlyTopo::new(5, p).unwrap();
        let tables = RouteTables::build(topo.graph(), 1);
        let dests = resolve(
            TrafficPattern::Perm1Hop,
            topo.graph(),
            &topo.host_routers(),
            1,
        );
        let a = analyze(&topo, &tables, &dests);
        assert!((a.max_link_load - p as f64).abs() < 1e-9);
        assert!((a.saturation - 1.0 / p as f64).abs() < 1e-9);
    }

    #[test]
    fn disconnected_pairs_carry_no_flow() {
        // Two disjoint triangles: each host reaches the two routers of its
        // own triangle only.
        let mut b = pf_graph::GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(u, v);
        }
        let topo = pf_topo::GraphTopo::new("two triangles", b.build(), 5);
        let tables = RouteTables::build(topo.graph(), 1);
        let a = analyze(
            &topo,
            &tables,
            &DestMap::Uniform {
                hosts: vec![0, 1, 2, 3, 4, 5],
            },
        );
        // Each directed link carries its source's flow to one of the five
        // other hosts.
        assert!(
            (a.max_link_load - 1.0).abs() < 1e-9,
            "max {}",
            a.max_link_load
        );
        assert!(
            (a.imbalance - 1.0).abs() < 1e-9,
            "imbalance {}",
            a.imbalance
        );
    }

    #[test]
    fn engine_saturation_tracks_fluid_bound() {
        // The cycle-accurate engine must land below the fluid bound but
        // within its allocator-efficiency factor (~0.7–1.0).
        let topo = PolarFlyTopo::new(7, 4).unwrap();
        let tables = RouteTables::build(topo.graph(), 1);
        let dests = resolve(
            TrafficPattern::Uniform,
            topo.graph(),
            &topo.host_routers(),
            1,
        );
        let fluid = analyze(&topo, &tables, &dests);
        let cfg = crate::engine::SimConfig::default()
            .warmup(300)
            .measure(700)
            .drain_max(500);
        let sim = crate::engine::simulate(&topo, &tables, &dests, crate::Routing::Min, 1.0, cfg);
        assert!(
            sim.accepted_load <= fluid.saturation + 0.05,
            "sim above fluid bound"
        );
        assert!(
            sim.accepted_load >= 0.6 * fluid.saturation,
            "sim {} too far below fluid bound {}",
            sim.accepted_load,
            fluid.saturation
        );
    }
}
